//! Pre-decoded program images and the per-worker decode memo.
//!
//! Both the golden model ([`GoldenSim`](crate::GoldenSim)) and the `proc-sim`
//! processor models are fetch→decode→execute interpreters. A 300-step run of
//! a 20-instruction program used to call `riscv::decode` 300 times *per
//! simulator*. Decoding the image once per test turns that into 20 decodes,
//! and one [`DecodeCache`] lookup serves both simulators of the test.
//!
//! # Invariants
//!
//! Pre-decoding is sound because of three properties, each pinned by tests:
//!
//! * **Text is immutable during execution.** `Memory::can_store` only permits
//!   stores to the `Data` region, so a running program can never modify the
//!   bytes a [`DecodedProgram`] was decoded from (see
//!   [`Memory::fetch`](crate::Memory::fetch) for the full argument). A
//!   pre-decoded image therefore stays valid for the whole run.
//! * **Matching is by exact text bytes.** A lookup hits only when the held
//!   image's text equals the program's encoded text byte for byte. Two
//!   programs with equal text but different data regions share an image by
//!   design: decode does not depend on the data image, which is loaded
//!   separately per run.
//! * **Architectural decode only.** A [`DecodedSlot`] holds the result of
//!   the *architectural* `riscv::decode` (`instr == None` marks a decode
//!   fault). Bug-injected decoder behaviour in `proc-sim` (e.g. the V2
//!   "illegal word still executes" path) layers on top of the pre-decoded
//!   fault exactly as it layers on top of a live `decode` failure — the
//!   buggy decoders are never bypassed and never pre-decoded.
//!
//! The [`DecodeCache`] holds one image: the last one looked up. Fuzzing
//! campaigns almost never repeat a text image across tests, so a memo that
//! spans tests would rarely hit; a miss re-decodes the held image in place,
//! reusing its buffers. The memo is owned per worker — one per
//! `fuzzer::ExecScratch`, hence one per campaign or per shard worker — so the
//! hot path shares no mutable state and hit/miss behaviour depends only on
//! the sequence of programs a worker simulates, never on shard count or
//! thread interleaving.
//!
//! # Oracle mode
//!
//! The interpreted fetch/decode path stays alive as the differential oracle:
//! `MABFUZZ_DECODE_CACHE=off` makes every `ExecScratch` run both simulators
//! through `Memory::fetch` + live `decode` again, and CI asserts the smoke
//! grid's artefacts are byte-identical in both modes.

use analysis::ProgramFacts;
use riscv::program::TEXT_BASE;
use riscv::{decode, Instr, Program};

use crate::PHYS_ADDR_MASK;

/// One pre-decoded instruction slot of a program text image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedSlot {
    /// The raw little-endian instruction word at this slot.
    pub word: u32,
    /// The architectural decode of `word`; `None` records a decode fault
    /// (the word raises an illegal-instruction exception when fetched).
    pub instr: Option<Instr>,
}

/// A program text image decoded once, indexable by fetch address.
///
/// [`fetch`](DecodedProgram::fetch) reproduces the semantics of
/// [`Memory::fetch`](crate::Memory::fetch) followed by `riscv::decode`
/// exactly, including the quirk that an *empty* text image still exposes one
/// fetchable all-zero word (the text region spans at least four bytes); see
/// the module docs for why the image stays valid for a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    text: Vec<u8>,
    slots: Vec<DecodedSlot>,
}

impl DecodedProgram {
    /// Encodes and pre-decodes `program`'s text image (raw-word overrides
    /// included, exactly as [`Program::text_bytes`] emits them).
    pub fn from_program(program: &Program) -> DecodedProgram {
        DecodedProgram::from_text(program.text_bytes())
    }

    /// Pre-decodes an already-encoded text image.
    ///
    /// `text` must be instruction-aligned (a multiple of 4 bytes), which every
    /// [`Program`] image is by construction.
    pub(crate) fn from_text(text: Vec<u8>) -> DecodedProgram {
        let mut program = DecodedProgram { text, slots: Vec::new() };
        program.decode_slots();
        program
    }

    /// Refills `slots` from `text`, reusing the slot allocation.
    fn decode_slots(&mut self) {
        debug_assert!(
            self.text.len().is_multiple_of(4),
            "program text images are whole instruction words"
        );
        self.slots.clear();
        self.slots.extend(self.text.chunks_exact(4).map(|chunk| {
            let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            DecodedSlot { word, instr: decode(word).ok() }
        }));
        if self.slots.is_empty() {
            // An empty text image still has one fetchable word: the text
            // region spans at least 4 bytes (`Memory::region_of`) and
            // unwritten memory reads zero.
            self.slots.push(DecodedSlot { word: 0, instr: decode(0).ok() });
        }
    }

    /// Returns the pre-decoded slot fetched at `addr`, or `None` when the
    /// address is outside the text region or misaligned — bit-for-bit the
    /// behaviour of [`Memory::fetch`](crate::Memory::fetch) plus
    /// `riscv::decode` on the same image.
    #[inline]
    pub fn fetch(&self, addr: u64) -> Option<&DecodedSlot> {
        let addr = addr & PHYS_ADDR_MASK;
        if !addr.is_multiple_of(4) || addr < TEXT_BASE {
            return None;
        }
        self.slots.get(((addr - TEXT_BASE) >> 2) as usize)
    }

    /// The encoded text image this program was decoded from (what
    /// `Memory::reset_with_program` should load).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Number of fetchable instruction slots (at least 1, even for an empty
    /// image).
    pub fn len_words(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when this image is exactly `program`'s current text —
    /// the precondition of the `run_decoded_into` entry points, asserted in
    /// debug builds.
    pub fn matches(&self, program: &Program) -> bool {
        self.text == program.text_bytes()
    }
}

/// Observable counters of a [`DecodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups answered by the held image (the same text as the previous
    /// lookup).
    pub hits: u64,
    /// Lookups that had to decode the image.
    pub misses: u64,
}

impl DecodeCacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A one-image memo of the last [`DecodedProgram`] a worker looked up.
///
/// See the [module docs](self) for the soundness invariants. The memo is a
/// plain single-owner value: every worker owns its own instance, so lookups
/// are lock-free and the hit/miss sequence is a pure function of the program
/// sequence the worker simulates.
#[derive(Debug, Default)]
pub struct DecodeCache {
    /// The last image looked up; `None` until the first lookup, so the empty
    /// text of `Program::new()` can never hit a cache that holds nothing.
    image: Option<DecodedProgram>,
    /// Static CFG/liveness facts for `image`, computed lazily on the first
    /// [`DecodeCache::get_or_decode_with_facts`] lookup and dropped on every
    /// miss. Point-coverage campaigns never ask for facts, so they never pay
    /// for the analysis.
    facts: Option<ProgramFacts>,
    stats: DecodeCacheStats,
    text_scratch: Vec<u8>,
}

impl DecodeCache {
    /// Creates an empty memo.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Returns the pre-decoded image of `program`: the held image when its
    /// text equals `program`'s, otherwise the held image re-decoded in place
    /// from `program`'s text.
    ///
    /// A hit compares the full text bytes, so a stale image can never be
    /// returned.
    pub fn get_or_decode(&mut self, program: &Program) -> &DecodedProgram {
        program.text_bytes_into(&mut self.text_scratch);
        if self.image.as_ref().is_some_and(|image| image.text == self.text_scratch) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.facts = None;
            match &mut self.image {
                // The old text buffer becomes the next lookup's scratch.
                Some(image) => {
                    std::mem::swap(&mut image.text, &mut self.text_scratch);
                    image.decode_slots();
                }
                None => {
                    let text = std::mem::take(&mut self.text_scratch);
                    self.image = Some(DecodedProgram::from_text(text));
                }
            }
        }
        self.image.as_ref().expect("every lookup leaves an image held")
    }

    /// Like [`get_or_decode`](DecodeCache::get_or_decode), additionally
    /// returning the static [`ProgramFacts`] of the image, computed on the
    /// first facts lookup of a held image.
    ///
    /// Because the analysis is a pure function of the text bytes (pinned by a
    /// property test below), memoised facts are indistinguishable from a
    /// fresh `ProgramFacts::analyze` of the same image. Hit/miss accounting is
    /// shared with `get_or_decode`: asking for facts never changes the stats
    /// stream.
    pub fn get_or_decode_with_facts(
        &mut self,
        program: &Program,
    ) -> (&DecodedProgram, &ProgramFacts) {
        self.get_or_decode(program);
        let image = self.image.as_ref().expect("every lookup leaves an image held");
        let facts = self.facts.get_or_insert_with(|| ProgramFacts::analyze(image.text()));
        (image, facts)
    }

    /// Returns the hit/miss counters.
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use proptest::prelude::*;
    use riscv::{Gpr, Op};

    fn sample_program(seed: i64) -> Program {
        Program::from_instrs(vec![
            Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, seed % 100),
            Instr::rtype(Op::Add, Gpr::A1, Gpr::A0, Gpr::A0),
            Instr::nullary(Op::Ecall),
        ])
    }

    #[test]
    fn fetch_matches_memory_fetch_plus_decode() {
        let mut program = sample_program(7);
        program.set_raw(1, 0xffff_ffff); // an undecodable word
        let decoded = DecodedProgram::from_program(&program);
        let mem = Memory::with_program(&program.text_bytes(), program.data());
        for addr in (TEXT_BASE - 8)..(TEXT_BASE + 24) {
            let via_mem = mem.fetch(addr).map(|word| (word, decode(word).ok()));
            let via_cache = decoded.fetch(addr).map(|slot| (slot.word, slot.instr));
            assert_eq!(via_cache, via_mem, "divergence at {addr:#x}");
        }
    }

    #[test]
    fn empty_program_exposes_one_zero_word() {
        let program = Program::new();
        let decoded = DecodedProgram::from_program(&program);
        assert_eq!(decoded.len_words(), 1);
        let slot = decoded.fetch(TEXT_BASE).expect("phantom word is fetchable");
        assert_eq!(slot.word, 0);
        assert_eq!(slot.instr, None, "the zero word does not decode");
        // Exactly what Memory::fetch reports for the same image.
        let mem = Memory::with_program(&[], &[]);
        assert_eq!(mem.fetch(TEXT_BASE), Some(0));
        assert_eq!(mem.fetch(TEXT_BASE + 4), None);
        assert_eq!(decoded.fetch(TEXT_BASE + 4).map(|s| s.word), None);
        // The empty text equals a fresh memo's empty scratch buffer; the
        // memo must still decode it rather than count a hit on nothing.
        let mut cache = DecodeCache::new();
        assert_eq!(cache.get_or_decode(&program), &decoded);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn repeated_lookups_hit() {
        let mut cache = DecodeCache::new();
        let program = sample_program(1);
        let first = cache.get_or_decode(&program).clone();
        let second = cache.get_or_decode(&program).clone();
        assert_eq!(first, second);
        assert_eq!(first, DecodedProgram::from_program(&program));
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.stats().lookups(), 2);
    }

    #[test]
    fn mutated_program_misses_and_reuses_nothing_stale() {
        let mut cache = DecodeCache::new();
        let mut program = sample_program(1);
        cache.get_or_decode(&program);
        program.instrs_mut()[0] = Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 99);
        let decoded = cache.get_or_decode(&program);
        assert!(decoded.matches(&program));
        assert_eq!(decoded.fetch(TEXT_BASE).unwrap().instr.unwrap().imm, 99);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn stats_are_a_pure_function_of_the_program_sequence() {
        // Only back-to-back repeats hit: 1→1, 3→3 and 2→2.
        let sequence: Vec<Program> =
            [1, 1, 2, 1, 3, 3, 2, 2, 4, 1].iter().map(|&s| sample_program(s)).collect();
        let mut first = DecodeCache::new();
        let mut second = DecodeCache::new();
        for program in &sequence {
            first.get_or_decode(program);
        }
        for program in &sequence {
            second.get_or_decode(program);
        }
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.stats().hits, 3);
        assert_eq!(first.stats().misses, 7);
    }

    #[test]
    fn facts_attach_to_the_cached_image_and_match_fresh_analysis() {
        let mut cache = DecodeCache::new();
        let program = sample_program(1);
        let fresh = ProgramFacts::analyze(&program.text_bytes());
        let (decoded, facts) = cache.get_or_decode_with_facts(&program);
        assert!(decoded.matches(&program));
        assert_eq!(facts, &fresh);
        // The second lookup hits and reuses the attached facts; asking for
        // facts never perturbs the stats stream.
        let (_, again) = cache.get_or_decode_with_facts(&program);
        assert_eq!(again, &fresh);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn plain_lookups_never_compute_facts() {
        let mut cache = DecodeCache::new();
        cache.get_or_decode(&sample_program(2));
        assert!(cache.facts.is_none(), "point-coverage lookups must not pay for analysis");
        // A miss drops the previous image's facts instead of keeping them.
        cache.get_or_decode_with_facts(&sample_program(2));
        cache.get_or_decode(&sample_program(3));
        assert!(cache.facts.is_none(), "a miss must not keep stale facts");
    }

    proptest! {
        /// Static analysis is a pure function of the text bytes: a facts hit
        /// from the cache is indistinguishable from a fresh analysis of the
        /// same image, for arbitrary (legal or not) word images.
        #[test]
        fn cached_facts_equal_fresh_analysis(words in proptest::collection::vec(any::<u32>(), 0..24)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let (program, _) = Program::from_text_bytes(&text);
            let mut cache = DecodeCache::new();
            let first = cache.get_or_decode_with_facts(&program).1.clone();
            let second = cache.get_or_decode_with_facts(&program).1.clone(); // hit path
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(&first, &ProgramFacts::analyze(&program.text_bytes()));
        }

        /// One memo fed a sequence of arbitrary images — each one twice
        /// (the hit path), then its first half (a shorter image right after
        /// a longer one), then the empty image — always returns exactly a
        /// fresh decode and a fresh analysis: in-place reuse leaves no stale
        /// slots and no stale facts behind.
        #[test]
        fn memo_reuse_matches_fresh_decode_and_analysis(
            images in proptest::collection::vec(
                proptest::collection::vec(any::<u32>(), 0..24),
                1..6,
            )
        ) {
            let mut sequence = Vec::new();
            for words in &images {
                let half = words[..words.len() / 2].to_vec();
                sequence.extend([words.clone(), words.clone(), half, Vec::new()]);
            }
            let mut cache = DecodeCache::new();
            for (step, words) in sequence.iter().enumerate() {
                let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                let (program, _) = Program::from_text_bytes(&text);
                let fresh_facts = ProgramFacts::analyze(&program.text_bytes());
                // Alternate which lookup meets the image first.
                if step % 2 == 0 {
                    prop_assert_eq!(cache.get_or_decode_with_facts(&program).1, &fresh_facts);
                }
                let fresh_image = DecodedProgram::from_program(&program);
                prop_assert_eq!(cache.get_or_decode(&program), &fresh_image);
                prop_assert_eq!(cache.get_or_decode_with_facts(&program).1, &fresh_facts);
            }
        }

        /// For arbitrary word images (legal or not), `DecodedProgram::fetch`
        /// is indistinguishable from `Memory::fetch` + `decode` at every
        /// aligned and misaligned probe address around the text region.
        #[test]
        fn fetch_equivalence_over_arbitrary_images(words in proptest::collection::vec(any::<u32>(), 0..24)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let decoded = DecodedProgram::from_text(text.clone());
            let mem = Memory::with_program(&text, &[]);
            let end = TEXT_BASE + 4 * (words.len() as u64 + 2);
            for addr in (TEXT_BASE - 4)..end {
                let via_mem = mem.fetch(addr).map(|word| (word, decode(word).ok()));
                let via_cache = decoded.fetch(addr).map(|slot| (slot.word, slot.instr));
                prop_assert_eq!(via_cache, via_mem, "divergence at {:#x}", addr);
            }
        }
    }
}
