//! Sparse byte-addressable memory with region-based access control and
//! per-page dirty tracking.

use std::collections::{BTreeMap, BTreeSet};

use riscv::program::{DATA_BASE, DATA_SIZE, TEXT_BASE};
use serde::{Deserialize, Serialize};

use crate::snapshot::{DirtyTracker, ResetStats};
use crate::PHYS_ADDR_MASK;

const PAGE_BITS: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;

/// The kind of memory region an address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Program text, starting at [`TEXT_BASE`]: readable and executable, not
    /// writable.
    Text,
    /// Scratch data region, starting at [`DATA_BASE`]: readable and writable.
    Data,
    /// Anything else: no access allowed, touching it raises an access fault.
    Unmapped,
}

/// One allocated physical page plus its dirty bit.
///
/// `dirty` is the first-touch dedup flag for the owning memory's
/// [`DirtyTracker`]: a clean page is all-zero (the invariant the dirty-reset
/// path relies on — see [`Memory::restore_with_program`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    bytes: Vec<u8>,
    dirty: bool,
}

impl Page {
    fn zeroed() -> Page {
        Page { bytes: vec![0u8; PAGE_SIZE as usize], dirty: false }
    }
}

/// Sparse, page-allocated physical memory.
///
/// Reads from allocated-but-unwritten bytes return zero, matching the
/// zero-initialised main memory of the simulated SoC. Reads from unmapped
/// regions are rejected by the access-control helpers; the raw
/// [`read_byte`](Memory::read_byte)/[`write_byte`](Memory::write_byte)
/// accessors ignore permissions so that processor models can implement buggy
/// behaviour on top of the same storage.
///
/// # Dirty-page tracking
///
/// Every byte write funnels through [`write_byte`](Memory::write_byte), which
/// marks the touched page dirty on first touch. This maintains the invariant
/// **clean ⇒ all-zero**: a page is only ever non-zero if its dirty bit is set
/// and it sits on the tracker's touched list. The fuzzing hot path exploits
/// it via [`restore_with_program`](Memory::restore_with_program), which zeroes
/// only the dirty pages instead of every allocated page;
/// [`reset_with_program`](Memory::reset_with_program) remains the full-reinit
/// differential oracle. Equality ([`PartialEq`]) compares memory *contents*
/// (text length plus bytes, with absent pages reading as zero), so a restored
/// memory compares equal to a freshly built one regardless of which pages
/// happen to be allocated or how they were cleaned.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Memory {
    pages: BTreeMap<u64, Page>,
    dirty: DirtyTracker,
    text_len: u64,
}

impl Memory {
    /// Creates an empty memory with no program loaded.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory image with `text` loaded at [`TEXT_BASE`] and `data`
    /// at [`DATA_BASE`].
    pub fn with_program(text: &[u8], data: &[u8]) -> Memory {
        let mut mem = Memory::new();
        mem.load_text(text);
        mem.load_data(data);
        mem
    }

    /// Resets the memory to the all-zero state and loads a fresh program
    /// image, reusing every already-allocated page.
    ///
    /// This is the full-reinit path: it unconditionally zeroes **every**
    /// allocated page, whether or not the previous test touched it. It stays
    /// alive as the differential oracle the dirty-restore path
    /// ([`restore_with_program`](Memory::restore_with_program)) is
    /// byte-compared against.
    pub fn reset_with_program(&mut self, text: &[u8], data: &[u8]) {
        for page in self.pages.values_mut() {
            page.bytes.fill(0);
            page.dirty = false;
        }
        self.dirty.clear();
        self.text_len = 0;
        self.load_text(text);
        self.load_data(data);
    }

    /// Like [`reset_with_program`](Memory::reset_with_program), but zeroes
    /// only the pages dirtied since the last reset/restore — O(touched pages)
    /// instead of O(allocated pages).
    ///
    /// Correctness rests on the clean-⇒-all-zero invariant (see the type-level
    /// docs): pages absent from the dirty list were never written since they
    /// were last zeroed, so skipping them leaves them exactly as a full reset
    /// would. Reloading the text/data images re-marks the image pages, which
    /// is the steady-state dirty set of a test that writes little memory.
    pub fn restore_with_program(&mut self, text: &[u8], data: &[u8]) {
        let pages = &mut self.pages;
        self.dirty.restore_units(|page_id| {
            if let Some(page) = pages.get_mut(&page_id) {
                page.bytes.fill(0);
                page.dirty = false;
            }
        });
        self.text_len = 0;
        self.load_text(text);
        self.load_data(data);
    }

    /// Loads the program text image at [`TEXT_BASE`].
    pub fn load_text(&mut self, text: &[u8]) {
        self.text_len = text.len() as u64;
        self.write_bytes_raw(TEXT_BASE, text);
    }

    /// Loads the initial data image at [`DATA_BASE`].
    pub fn load_data(&mut self, data: &[u8]) {
        self.write_bytes_raw(DATA_BASE, data);
    }

    /// Returns the number of bytes of loaded program text.
    pub fn text_len(&self) -> u64 {
        self.text_len
    }

    /// Returns the ids of the pages dirtied since the last reset/restore, in
    /// first-touch order (a page id is `physical address >> 12`).
    pub fn dirty_pages(&self) -> &[u64] {
        self.dirty.touched()
    }

    /// Returns the dirty-restore work counters (see [`ResetStats`]).
    pub fn reset_stats(&self) -> ResetStats {
        self.dirty.stats()
    }

    /// Classifies a (physical) address into its [`Region`].
    pub fn region_of(&self, addr: u64) -> Region {
        let addr = addr & PHYS_ADDR_MASK;
        if addr >= TEXT_BASE && addr < TEXT_BASE + self.text_len.max(4) {
            Region::Text
        } else if (DATA_BASE..DATA_BASE + DATA_SIZE).contains(&addr) {
            Region::Data
        } else {
            Region::Unmapped
        }
    }

    /// Returns `true` when a `width`-byte data load at `addr` is permitted.
    pub fn can_load(&self, addr: u64, width: u64) -> bool {
        let last = addr.wrapping_add(width.saturating_sub(1));
        self.region_of(addr) != Region::Unmapped && self.region_of(last) != Region::Unmapped
    }

    /// Returns `true` when a `width`-byte store at `addr` is permitted.
    ///
    /// Only the `Data` region is writable (first *and* last byte of the
    /// access must fall inside it), so program text can never be modified by
    /// an executing store — the invariant [`fetch`](Memory::fetch) and
    /// pre-decoded execution build on.
    pub fn can_store(&self, addr: u64, width: u64) -> bool {
        let last = addr.wrapping_add(width.saturating_sub(1));
        self.region_of(addr) == Region::Data && self.region_of(last) == Region::Data
    }

    /// Reads one byte, ignoring permissions. Unwritten bytes read as zero.
    pub fn read_byte(&self, addr: u64) -> u8 {
        let addr = addr & PHYS_ADDR_MASK;
        let page = addr >> PAGE_BITS;
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        self.pages.get(&page).map_or(0, |p| p.bytes[offset])
    }

    /// Writes one byte, ignoring permissions.
    ///
    /// This is the single mutation choke point for page contents: it marks
    /// the page dirty on first touch, which is what keeps the dirty-restore
    /// path (`restore_with_program`) equivalent to a full reset.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        let addr = addr & PHYS_ADDR_MASK;
        let page_id = addr >> PAGE_BITS;
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        let page = self.pages.entry(page_id).or_insert_with(Page::zeroed);
        if !page.dirty {
            page.dirty = true;
            self.dirty.mark(page_id);
        }
        page.bytes[offset] = value;
    }

    /// Reads `width` bytes little-endian, zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "unsupported access width {width}");
        let mut value = 0u64;
        for i in 0..width {
            value |= u64::from(self.read_byte(addr.wrapping_add(i))) << (8 * i);
        }
        value
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_uint(&mut self, addr: u64, value: u64, width: u64) {
        assert!(matches!(width, 1 | 2 | 4 | 8), "unsupported access width {width}");
        for i in 0..width {
            self.write_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Fetches the 32-bit instruction word at `addr`, or `None` when the
    /// address is outside the text region or misaligned.
    ///
    /// # Text is immutable while a program runs
    ///
    /// Between [`reset_with_program`](Memory::reset_with_program) (or
    /// [`restore_with_program`](Memory::restore_with_program)) calls, the
    /// bytes this function reads cannot change: every store the executors
    /// issue is gated on [`can_store`](Memory::can_store), which only admits
    /// the `Data` region (both TheHuzz/MABFuzz simulators route all
    /// program-visible writes through `execute_instr`, and the V1–V7 bug
    /// deviations never write memory directly — V5 only suppresses *load*
    /// faults). The raw [`write_byte`](Memory::write_byte) escape hatch
    /// exists for loaders and future buggy models, but nothing on the
    /// execution path uses it. This is the invariant that makes caching
    /// pre-decoded text by program hash sound
    /// (see [`DecodedProgram`](crate::DecodedProgram)): a fetch at a given
    /// address returns the same word for the whole run, so its decode can be
    /// computed once. Pinned by the store-to-text tests here, in `exec`, and
    /// in `proc-sim`.
    pub fn fetch(&self, addr: u64) -> Option<u32> {
        let addr = addr & PHYS_ADDR_MASK;
        if !addr.is_multiple_of(4) || self.region_of(addr) != Region::Text {
            return None;
        }
        Some(self.read_uint(addr, 4) as u32)
    }

    fn write_bytes_raw(&mut self, base: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_byte(base + i as u64, *b);
        }
    }
}

/// Content equality: two memories are equal when they hold the same text
/// length and the same bytes at every address, treating unallocated pages as
/// zero. Dirty-tracking metadata and page-allocation differences are
/// deliberately invisible — a dirty-restored memory must compare equal to a
/// freshly constructed one.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        if self.text_len != other.text_len {
            return false;
        }
        const ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0u8; PAGE_SIZE as usize];
        let ids: BTreeSet<u64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        ids.into_iter().all(|id| {
            let a = self.pages.get(&id).map_or(&ZERO_PAGE[..], |p| &p.bytes[..]);
            let b = other.pages.get(&id).map_or(&ZERO_PAGE[..], |p| &p.bytes[..]);
            a == b
        })
    }
}

impl Eq for Memory {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_byte(DATA_BASE), 0);
        assert_eq!(mem.read_uint(DATA_BASE, 8), 0);
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut mem = Memory::new();
        for width in [1u64, 2, 4, 8] {
            let value = 0x1122_3344_5566_7788u64;
            mem.write_uint(DATA_BASE + 64, value, width);
            let mask = if width == 8 { u64::MAX } else { (1 << (8 * width)) - 1 };
            assert_eq!(mem.read_uint(DATA_BASE + 64, width), value & mask);
        }
    }

    #[test]
    fn regions_are_classified() {
        let mem = Memory::with_program(&[0u8; 64], &[0u8; 16]);
        assert_eq!(mem.region_of(TEXT_BASE), Region::Text);
        assert_eq!(mem.region_of(TEXT_BASE + 63), Region::Text);
        assert_eq!(mem.region_of(TEXT_BASE + 64), Region::Unmapped);
        assert_eq!(mem.region_of(DATA_BASE), Region::Data);
        assert_eq!(mem.region_of(DATA_BASE + DATA_SIZE), Region::Unmapped);
        assert_eq!(mem.region_of(0x1000), Region::Unmapped);
    }

    #[test]
    fn permissions_follow_regions() {
        let mem = Memory::with_program(&[0u8; 64], &[]);
        assert!(mem.can_load(TEXT_BASE, 4));
        assert!(!mem.can_store(TEXT_BASE, 4));
        assert!(mem.can_store(DATA_BASE, 8));
        assert!(mem.can_load(DATA_BASE + DATA_SIZE - 8, 8));
        assert!(!mem.can_load(DATA_BASE + DATA_SIZE - 4, 8));
        assert!(!mem.can_load(0x0, 1));
    }

    #[test]
    fn fetch_requires_alignment_and_text_region() {
        let text: Vec<u8> = 0x0000_0013u32.to_le_bytes().into();
        let mem = Memory::with_program(&text, &[]);
        assert_eq!(mem.fetch(TEXT_BASE), Some(0x13));
        assert_eq!(mem.fetch(TEXT_BASE + 2), None);
        assert_eq!(mem.fetch(DATA_BASE), None);
    }

    #[test]
    fn no_store_width_can_touch_the_text_region() {
        // The decode-cache soundness argument (see `fetch`): every width and
        // every alignment of store that overlaps text — including one
        // straddling the text/unmapped boundary — is rejected.
        let text_len = 64u64;
        let mem = Memory::with_program(&vec![0u8; text_len as usize], &[0u8; 16]);
        for width in [1u64, 2, 4, 8] {
            for offset in 0..text_len {
                assert!(
                    !mem.can_store(TEXT_BASE + offset, width),
                    "store width {width} at text+{offset} must be rejected"
                );
            }
            // A store ending just before text, or starting just after, is a
            // plain unmapped fault, not a text write.
            assert!(!mem.can_store(TEXT_BASE - width, width));
            assert!(!mem.can_store(TEXT_BASE + text_len, width));
        }
        // Data stores stay permitted — the rejection is about the region, not
        // the operation.
        assert!(mem.can_store(DATA_BASE, 8));
    }

    #[test]
    fn addresses_wrap_to_32_bits() {
        let mut mem = Memory::new();
        mem.write_byte(0xffff_ffff_8001_0000, 0xab);
        assert_eq!(mem.read_byte(DATA_BASE), 0xab);
        let mem2 = Memory::with_program(&[0u8; 8], &[]);
        assert_eq!(mem2.region_of(0xffff_ffff_8000_0000), Region::Text);
    }

    /// The pages a `width`-byte access starting at `addr` touches, mirroring
    /// the per-byte masking `write_uint`/`write_byte` perform.
    fn expected_pages(addr: u64, width: u64) -> BTreeSet<u64> {
        (0..width)
            .map(|i| (addr.wrapping_add(i) & PHYS_ADDR_MASK) >> PAGE_BITS)
            .collect()
    }

    #[test]
    fn every_store_width_and_offset_marks_exactly_the_touched_pages() {
        // Exhaustive width × page-offset sweep of the dirty-marking path,
        // including accesses straddling a page boundary: a store must mark
        // exactly the pages it touches — no more (restores stay O(touched)),
        // no fewer (a missed mark would break clean-⇒-all-zero and leak
        // bytes into the next test).
        for width in [1u64, 2, 4, 8] {
            for offset in 0..PAGE_SIZE {
                let addr = DATA_BASE + offset;
                let mut mem = Memory::new();
                mem.write_uint(addr, u64::MAX, width);
                let marked: BTreeSet<u64> = mem.dirty_pages().iter().copied().collect();
                assert_eq!(
                    marked,
                    expected_pages(addr, width),
                    "width {width} at page offset {offset:#x}"
                );
                assert_eq!(
                    mem.dirty_pages().len(),
                    marked.len(),
                    "no duplicate marks for width {width} at offset {offset:#x}"
                );
            }
        }
        // Address wrap-around: the per-byte 32-bit masking also governs which
        // page gets marked.
        let mut mem = Memory::new();
        mem.write_uint(0xffff_fffe, u64::MAX, 4);
        let marked: BTreeSet<u64> = mem.dirty_pages().iter().copied().collect();
        assert_eq!(marked, expected_pages(0xffff_fffe, 4));
        assert!(marked.contains(&0), "wrapped bytes land on (and mark) page 0");
    }

    #[test]
    fn writes_of_zero_still_mark_the_page() {
        // Marking is per write, not per value: a zero store on a fresh page
        // keeps the invariant trivially, but on an image page it must still
        // be tracked or a *later* nonzero write would be missed by dedup.
        let mut mem = Memory::new();
        mem.write_byte(DATA_BASE, 0);
        assert_eq!(mem.dirty_pages().len(), 1);
    }

    #[test]
    fn restore_matches_full_reset_byte_for_byte() {
        let text: Vec<u8> =
            (0..256u32).flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes()).collect();
        let data = [7u8, 0, 0xff, 3];
        let mut restored = Memory::new();
        let mut reset = Memory::new();
        for round in 0..3u64 {
            restored.restore_with_program(&text, &data);
            reset.reset_with_program(&text, &data);
            assert_eq!(restored, reset, "round {round}: images diverge after setup");
            // Scribble over data pages (several, including far offsets) so
            // the next round has real dirt to clean.
            for offset in [0u64, 8, PAGE_SIZE - 1, PAGE_SIZE + 5, 3 * PAGE_SIZE] {
                restored.write_uint(DATA_BASE + offset * (round + 1) % DATA_SIZE, !round, 8);
                reset.write_uint(DATA_BASE + offset * (round + 1) % DATA_SIZE, !round, 8);
            }
        }
        let stats = restored.reset_stats();
        assert_eq!(stats.restores, 3);
        assert!(stats.units_restored > 0, "later rounds had dirty pages to clean");
    }

    #[test]
    fn restore_cleans_pages_the_new_image_does_not_cover() {
        // A page dirtied by the old test but untouched by the new image must
        // read zero after a restore, exactly like after a full reset.
        let mut mem = Memory::new();
        mem.restore_with_program(&[0x13, 0, 0, 0], &[]);
        mem.write_uint(DATA_BASE + 5 * PAGE_SIZE, 0xdead_beef, 4);
        mem.restore_with_program(&[0x13, 0, 0, 0], &[]);
        assert_eq!(mem.read_uint(DATA_BASE + 5 * PAGE_SIZE, 4), 0);
        assert_eq!(mem, Memory::with_program(&[0x13, 0, 0, 0], &[]));
    }

    #[test]
    fn content_equality_ignores_page_allocation() {
        let mut touched = Memory::with_program(&[1, 2, 3, 4], &[9]);
        touched.write_byte(DATA_BASE + 7 * PAGE_SIZE, 1);
        touched.write_byte(DATA_BASE + 7 * PAGE_SIZE, 0); // back to zero, page stays allocated
        let fresh = Memory::with_program(&[1, 2, 3, 4], &[9]);
        assert_eq!(touched, fresh, "an allocated all-zero page equals an absent page");
        let mut different = Memory::with_program(&[1, 2, 3, 4], &[9]);
        different.write_byte(DATA_BASE + 16, 1);
        assert_ne!(touched, different);
        assert_ne!(fresh, Memory::with_program(&[1, 2, 3, 4, 5, 6, 7, 8], &[9]), "text length differs");
    }

    proptest! {
        #[test]
        fn byte_round_trip(offset in 0u64..DATA_SIZE, value in any::<u8>()) {
            let mut mem = Memory::new();
            mem.write_byte(DATA_BASE + offset, value);
            prop_assert_eq!(mem.read_byte(DATA_BASE + offset), value);
        }

        #[test]
        fn uint_round_trip(offset in 0u64..(DATA_SIZE - 8), value in any::<u64>()) {
            let mut mem = Memory::new();
            mem.write_uint(DATA_BASE + offset, value, 8);
            prop_assert_eq!(mem.read_uint(DATA_BASE + offset, 8), value);
        }

        #[test]
        fn restore_equals_reset_under_random_write_sequences(
            writes in proptest::collection::vec((0u64..DATA_SIZE, any::<u64>(), 0usize..4), 0..24),
            text in proptest::collection::vec(any::<u8>(), 0..64),
            data in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            // Dirty both memories with the same random write sequence, then
            // bring one back with the restore path and the other with the
            // full-reinit oracle: contents must match a pristine image.
            let mut restored = Memory::new();
            let mut reset = Memory::new();
            restored.restore_with_program(&text, &data);
            reset.reset_with_program(&text, &data);
            for (offset, value, width_idx) in writes {
                let width = [1u64, 2, 4, 8][width_idx];
                let addr = DATA_BASE + (offset & !(width - 1)).min(DATA_SIZE - width);
                restored.write_uint(addr, value, width);
                reset.write_uint(addr, value, width);
            }
            restored.restore_with_program(&text, &data);
            reset.reset_with_program(&text, &data);
            prop_assert_eq!(&restored, &reset);
            prop_assert_eq!(&restored, &Memory::with_program(&text, &data));
        }
    }
}
