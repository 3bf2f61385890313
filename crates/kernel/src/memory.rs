//! Simulated physical and virtual memory.
//!
//! Event processes need real copy-on-write semantics for Figure 6's memory
//! measurements, so the simulator models 4 KiB pages explicitly. A process
//! owns a base page table; each event process keeps only a delta map of the
//! pages it has modified, borrowing the base table for everything else —
//! the optimization §6.2 describes ("event processes do not keep their own
//! page tables ... changing it in exactly those places that differ").
//!
//! So a frame has exactly one owner: one base page table, or one event
//! process's delta, which copies a base page on its first write rather
//! than sharing it. Releasing a frame frees it; nothing counts references.
//!
//! Frames are simulated, but their page buffers are host memory, and the
//! host reuses them: a released frame's buffer goes to the pool's spare
//! list, and the next frame allocated takes it — zero-filled for a fresh
//! page, overwritten whole for a copy-on-write copy — so no event process
//! ever sees another's bytes. The spare list is never charged:
//! [`FramePool::frames_in_use`] counts live frames only, so §6.2's
//! `page_copy` charge and Figure 6's page counts are those of a pool that
//! freed every page. It holds at most the peak number of live frames.

use std::collections::BTreeMap;

use crate::error::{SysError, SysResult};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifies a physical frame in the [`FramePool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameId(u32);

/// A virtual page number (address divided by [`PAGE_SIZE`]).
pub type Vpn = u64;

/// The pool of simulated physical frames, shared by all address spaces.
#[derive(Default)]
pub struct FramePool {
    frames: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    free: Vec<FrameId>,
    /// Page buffers of released frames, for the next allocations (host
    /// memory; never counted as frames).
    spare: Vec<Box<[u8; PAGE_SIZE]>>,
    in_use: usize,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// Number of frames currently allocated (live frames only; spare
    /// page buffers are not frames).
    pub fn frames_in_use(&self) -> usize {
        self.in_use
    }

    /// Allocates a zeroed frame, on a spare page buffer if there is one
    /// (zero-filled first).
    pub fn alloc_zeroed(&mut self) -> FrameId {
        let data = match self.spare.pop() {
            Some(mut page) => {
                page.fill(0);
                page
            }
            None => Box::new([0u8; PAGE_SIZE]),
        };
        self.alloc(data)
    }

    /// Allocates a frame holding a copy of `src`, on a spare page buffer
    /// if there is one (overwritten whole).
    pub fn alloc_copy_of(&mut self, src: FrameId) -> FrameId {
        let data = match self.spare.pop() {
            Some(mut page) => {
                page.copy_from_slice(&self.frame(src)[..]);
                page
            }
            None => Box::new(*self.frame(src)),
        };
        self.alloc(data)
    }

    fn alloc(&mut self, data: Box<[u8; PAGE_SIZE]>) -> FrameId {
        self.in_use += 1;
        if let Some(id) = self.free.pop() {
            self.frames[id.0 as usize] = Some(data);
            id
        } else {
            self.frames.push(Some(data));
            FrameId((self.frames.len() - 1) as u32)
        }
    }

    /// Frees a frame, keeping its page buffer for the next allocation.
    pub fn release(&mut self, id: FrameId) {
        let data = self.frames[id.0 as usize].take().expect("live frame");
        self.spare.push(data);
        self.free.push(id);
        self.in_use -= 1;
    }

    /// Reads bytes from a frame.
    pub fn read(&self, id: FrameId, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.frame(id)[offset..offset + out.len()]);
    }

    /// Writes bytes into a frame (its one owner's write).
    pub fn write(&mut self, id: FrameId, offset: usize, data: &[u8]) {
        self.frame_mut(id)[offset..offset + data.len()].copy_from_slice(data);
    }

    fn frame(&self, id: FrameId) -> &[u8; PAGE_SIZE] {
        self.frames[id.0 as usize]
            .as_ref()
            .expect("frame id refers to a live frame")
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut [u8; PAGE_SIZE] {
        self.frames[id.0 as usize]
            .as_mut()
            .expect("frame id refers to a live frame")
    }
}

/// Virtual page number → frame: a base process's page table, or the
/// modified-pages delta of a dormant or running event process.
///
/// §6.2: "The memory state of each dormant event process includes just a
/// list of modified pages and the modified pages themselves."
#[derive(Default)]
pub struct PageMap {
    pages: BTreeMap<Vpn, FrameId>,
}

impl PageMap {
    /// The frame mapped at `vpn`.
    pub fn get(&self, vpn: Vpn) -> Option<FrameId> {
        self.pages.get(&vpn).copied()
    }

    /// Maps `vpn` to `frame`, returning any previous mapping.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId) -> Option<FrameId> {
        self.pages.insert(vpn, frame)
    }

    /// Number of mapped pages (for a delta, the quantity Figure 6
    /// measures).
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates `(vpn, frame)` mappings.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, FrameId)> + '_ {
        self.pages.iter().map(|(&v, &f)| (v, f))
    }

    /// Removes the frames whose page lies in `[start_vpn, end_vpn)` and
    /// yields them as it goes; used by `ep_clean`.
    pub fn drain_range(
        &mut self,
        start_vpn: Vpn,
        end_vpn: Vpn,
    ) -> impl Iterator<Item = FrameId> + '_ {
        self.pages
            .extract_if(start_vpn..end_vpn, |_, _| true)
            .map(|(_, frame)| frame)
    }

    /// Removes every frame and yields them; used by `ep_exit`.
    pub fn drain_all(&mut self) -> impl Iterator<Item = FrameId> {
        std::mem::take(&mut self.pages).into_values()
    }
}

/// Splits a byte range into per-page segments: `(vpn, offset, len)`.
///
/// Returns an error for zero-length ranges or ranges that overflow.
pub fn page_segments(addr: u64, len: usize) -> SysResult<PageSegments> {
    if len == 0 {
        return Err(SysError::InvalidArgument);
    }
    let end = addr
        .checked_add(len as u64)
        .ok_or(SysError::InvalidArgument)?;
    Ok(PageSegments { cur: addr, end })
}

/// The per-page segments of a byte range, in address order (see
/// [`page_segments`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSegments {
    cur: u64,
    end: u64,
}

impl Iterator for PageSegments {
    type Item = (Vpn, usize, usize);

    fn next(&mut self) -> Option<(Vpn, usize, usize)> {
        if self.cur >= self.end {
            return None;
        }
        let vpn = self.cur / PAGE_SIZE as u64;
        let offset = (self.cur % PAGE_SIZE as u64) as usize;
        let take = (PAGE_SIZE - offset).min((self.end - self.cur) as usize);
        self.cur += take as u64;
        Some((vpn, offset, take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_alloc_release() {
        let mut pool = FramePool::new();
        let a = pool.alloc_zeroed();
        let b = pool.alloc_zeroed();
        assert_eq!(pool.frames_in_use(), 2);
        pool.release(a);
        assert_eq!(pool.frames_in_use(), 1);
        // Freed slots are reused.
        let c = pool.alloc_zeroed();
        assert_eq!(c, a);
        assert_eq!(pool.frames_in_use(), 2);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.frames_in_use(), 0);
    }

    /// A released frame's page buffer is reused, and what it held never
    /// shows: a fresh frame on it reads as zeros, a copy as its source.
    #[test]
    fn a_reused_page_buffer_never_shows_its_old_bytes() {
        let mut pool = FramePool::new();
        let secret = pool.alloc_zeroed();
        pool.write(secret, 0, &[0xa5; PAGE_SIZE]);
        pool.release(secret);
        let fresh = pool.alloc_zeroed();
        let mut page = [0xffu8; PAGE_SIZE];
        pool.read(fresh, 0, &mut page);
        assert_eq!(page, [0u8; PAGE_SIZE]);
        pool.write(fresh, 0, &[0x5a; PAGE_SIZE]);
        let base = pool.alloc_zeroed();
        pool.write(base, 7, b"base");
        pool.release(fresh);
        let copy = pool.alloc_copy_of(base);
        pool.read(copy, 0, &mut page);
        let mut want = [0u8; PAGE_SIZE];
        want[7..11].copy_from_slice(b"base");
        assert_eq!(page, want);
        // Spare buffers are not frames.
        assert_eq!(pool.frames_in_use(), 2);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut pool = FramePool::new();
        let f = pool.alloc_zeroed();
        pool.write(f, 100, b"hello");
        let mut buf = [0u8; 5];
        pool.read(f, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn copy_of_is_independent() {
        let mut pool = FramePool::new();
        let f = pool.alloc_zeroed();
        pool.write(f, 0, b"abc");
        let g = pool.alloc_copy_of(f);
        pool.write(g, 0, b"xyz");
        let mut a = [0u8; 3];
        let mut b = [0u8; 3];
        pool.read(f, 0, &mut a);
        pool.read(g, 0, &mut b);
        assert_eq!(&a, b"abc");
        assert_eq!(&b, b"xyz");
    }

    #[test]
    fn page_segment_math() {
        // Within one page.
        let segments = |addr, len| page_segments(addr, len).unwrap().collect::<Vec<_>>();
        assert_eq!(segments(10, 20), vec![(0, 10, 20)]);
        // Crossing a boundary.
        assert_eq!(segments(4090, 10), vec![(0, 4090, 6), (1, 0, 4)]);
        // Exactly page aligned, multiple pages.
        assert_eq!(segments(8192, 8192), vec![(2, 0, 4096), (3, 0, 4096)]);
        assert_eq!(page_segments(0, 0), Err(SysError::InvalidArgument));
        assert_eq!(page_segments(u64::MAX, 2), Err(SysError::InvalidArgument));
    }

    #[test]
    fn delta_drain_range() {
        let mut pool = FramePool::new();
        let mut d = PageMap::default();
        for vpn in 0..10 {
            d.map(vpn, pool.alloc_zeroed());
        }
        let drained: Vec<FrameId> = d.drain_range(3, 6).collect();
        assert_eq!(drained.len(), 3);
        assert_eq!(d.len(), 7);
        assert!(d.get(3).is_none());
        assert!(d.get(6).is_some());
    }
}
