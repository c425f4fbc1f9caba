//! Decode-stage model with per-opcode and cross-product coverage points.

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::{Instr, Op, OpClass};

/// Decode-unit model.
///
/// Coverage points:
/// * per-operation decode (`|Op| × 2`: this op decoded / another op of the
///   same class decoded),
/// * per-class crosses with operand shapes (`rd == x0`, `rs1 == rs2`,
///   negative immediate), which need specific operand patterns to reach,
/// * illegal-instruction path (split by major-opcode bucket, so different
///   kinds of garbage words reach different points),
/// * compressed-instruction and privilege-violation sites that the modelled
///   ISA can never reach — deliberately unreachable points that keep total
///   coverage below 100 % like on the real designs.
///
/// Every id table is indexed by [`Op::index`] or [`OpClass::index`], so a
/// decode costs no key lookup.
#[derive(Debug, Clone)]
pub struct DecoderModel {
    /// Per op: the `op_<mnemonic>` "this op decoded" id and the op's position
    /// in its class's `class_other` slice.
    ops: Vec<(CoverPointId, usize)>,
    /// Per class: the "another op of this class decoded" id of every op in
    /// the class, in [`Op::ALL`] order.
    class_other: Vec<Vec<CoverPointId>>,
    class_rd_zero: Vec<(CoverPointId, CoverPointId)>,
    class_same_src: Vec<(CoverPointId, CoverPointId)>,
    class_neg_imm: Vec<(CoverPointId, CoverPointId)>,
    illegal_buckets: Vec<CoverPointId>,
    legal_id: CoverPointId,
    depth_ids: Vec<CoverPointId>,
    decoded_count: usize,
}

impl DecoderModel {
    /// Creates a decoder model and registers its coverage points.
    ///
    /// `depth_sites` controls how many "consecutive-decode depth" points are
    /// registered; larger values add points only long runs of instructions can
    /// reach, which is one of the knobs the cores use to differentiate how
    /// hard full coverage is.
    pub fn new(space: &mut CoverageSpace, depth_sites: usize) -> DecoderModel {
        let module = "decoder";
        let mut ops = Vec::with_capacity(Op::ALL.len());
        let mut class_other = vec![Vec::new(); OpClass::ALL.len()];
        for op in Op::ALL {
            let (seen, other) = space.register_site(module, format!("op_{}", op.mnemonic()));
            let others = &mut class_other[op.class().index()];
            ops.push((seen, others.len()));
            others.push(other);
        }
        let mut class_rd_zero = Vec::with_capacity(OpClass::ALL.len());
        let mut class_same_src = Vec::with_capacity(OpClass::ALL.len());
        let mut class_neg_imm = Vec::with_capacity(OpClass::ALL.len());
        for class in OpClass::ALL {
            class_rd_zero.push(space.register_site(module, format!("{class}_rd_is_x0")));
            class_same_src.push(space.register_site(module, format!("{class}_rs1_eq_rs2")));
            class_neg_imm.push(space.register_site(module, format!("{class}_imm_negative")));
        }
        let mut illegal_buckets = Vec::new();
        for bucket in 0..8 {
            illegal_buckets.push(space.register_branch(module, format!("illegal_major{bucket}"), true));
        }
        let legal_id = space.register_branch(module, "illegal_any", false);
        // Deliberately unreachable sites (compressed ISA, supervisor/user
        // privilege checks) mirroring logic the real decoders contain but the
        // fuzzer's bare-metal machine-mode programs cannot reach. They only
        // need to exist in the space, so their ids are not kept.
        for site in ["rvc_quadrant0", "rvc_quadrant1", "rvc_quadrant2", "smode_csr", "umode_csr", "vector_cfg"] {
            space.register_site(module, site);
        }
        let mut depth_ids = Vec::new();
        for i in 0..depth_sites {
            depth_ids.push(space.register_branch(module, format!("decode_depth_{}", 8 * (i + 1)), true));
        }
        DecoderModel {
            ops,
            class_other,
            class_rd_zero,
            class_same_src,
            class_neg_imm,
            illegal_buckets,
            legal_id,
            depth_ids,
            decoded_count: 0,
        }
    }

    /// Clears the per-test decode counter.
    pub fn reset(&mut self) {
        self.decoded_count = 0;
    }

    /// Records the decode of a legal instruction.
    pub fn on_decode(&mut self, instr: &Instr, map: &mut CoverageMap) {
        map.cover(self.legal_id);
        let (seen, position) = self.ops[instr.op.index()];
        map.cover(seen);
        // The "other direction" of each op's site is reachable by decoding a
        // different op of the same class, mirroring the else-branches of a
        // per-class decode tree.
        let class = instr.op.class().index();
        let others = &self.class_other[class];
        for &other in others[..position].iter().chain(&others[position + 1..]) {
            map.cover(other);
        }
        let (zero_t, zero_f) = self.class_rd_zero[class];
        map.cover(if instr.rd.is_zero() { zero_t } else { zero_f });
        let (same_t, same_f) = self.class_same_src[class];
        map.cover(if instr.rs1 == instr.rs2 { same_t } else { same_f });
        let (neg_t, neg_f) = self.class_neg_imm[class];
        map.cover(if instr.imm < 0 { neg_t } else { neg_f });

        self.decoded_count += 1;
        let depth_bucket = self.decoded_count / 8;
        if depth_bucket >= 1 && depth_bucket <= self.depth_ids.len() {
            map.cover(self.depth_ids[depth_bucket - 1]);
        }
    }

    /// Records the decode of an illegal instruction word.
    pub fn on_illegal(&mut self, word: u32, map: &mut CoverageMap) {
        let bucket = (word & 0x7f) as usize % self.illegal_buckets.len();
        map.cover(self.illegal_buckets[bucket]);
    }

    /// Returns how many legal instructions have been decoded in this test.
    pub fn decoded_count(&self) -> usize {
        self.decoded_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::Gpr;

    fn setup(depth: usize) -> (CoverageSpace, DecoderModel) {
        let mut space = CoverageSpace::new("test");
        let decoder = DecoderModel::new(&mut space, depth);
        (space, decoder)
    }

    #[test]
    fn registers_per_op_and_cross_points() {
        let (space, _decoder) = setup(4);
        // 74 ops × 2 + 10 classes × 3 crosses × 2 + 8 illegal + 1 legal
        // + 6 unreachable × 2 + 4 depth.
        assert_eq!(space.len(), 74 * 2 + 10 * 6 + 8 + 1 + 12 + 4);
    }

    #[test]
    fn decoding_an_op_covers_its_point_and_class_crosses() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        let instr = Instr::rtype(Op::Add, Gpr::Zero, Gpr::A0, Gpr::A0);
        decoder.on_decode(&instr, &mut map);
        assert!(map.is_covered(space.lookup("decoder", "op_add", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "op_sub", false).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "op_sub", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_rd_is_x0", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_rs1_eq_rs2", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_imm_negative", false).unwrap()));
        assert_eq!(decoder.decoded_count(), 1);
    }

    /// The names of the points a set of covered ids stands for, sorted.
    fn names(space: &CoverageSpace, ids: impl IntoIterator<Item = CoverPointId>) -> Vec<String> {
        let mut names: Vec<String> = ids.into_iter().map(|id| space.info(id).unwrap().to_string()).collect();
        names.sort();
        names
    }

    #[test]
    fn every_op_covers_exactly_its_named_points() {
        let (space, mut decoder) = setup(0);
        let id = |site: &str, direction: bool| {
            space.lookup("decoder", site, direction).unwrap_or_else(|| panic!("no point {site}"))
        };
        let shapes = [
            Instr { op: Op::Add, rd: Gpr::Zero, rs1: Gpr::A1, rs2: Gpr::A1, imm: -4 },
            Instr { op: Op::Add, rd: Gpr::A0, rs1: Gpr::A1, rs2: Gpr::A2, imm: 4 },
        ];
        for op in Op::ALL {
            for shape in shapes {
                let instr = Instr { op, ..shape }.normalize();
                let mut map = CoverageMap::for_space(&space);
                decoder.on_decode(&instr, &mut map);
                let class = op.class();
                let mut expected = vec![id("illegal_any", false), id(&format!("op_{}", op.mnemonic()), true)];
                expected.extend(
                    Op::of_class(class).filter(|other| *other != op).map(|other| id(&format!("op_{}", other.mnemonic()), false)),
                );
                expected.push(id(&format!("{class}_rd_is_x0"), instr.rd.is_zero()));
                expected.push(id(&format!("{class}_rs1_eq_rs2"), instr.rs1 == instr.rs2));
                expected.push(id(&format!("{class}_imm_negative"), instr.imm < 0));
                assert_eq!(names(&space, map.iter_covered()), names(&space, expected), "decoding {instr:?}");
            }
        }
    }

    #[test]
    fn illegal_words_map_to_major_opcode_buckets() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        decoder.on_illegal(0xffff_ffff, &mut map);
        decoder.on_illegal(0x0000_0000, &mut map);
        let covered: Vec<_> = (0..8)
            .filter(|b| {
                map.is_covered(space.lookup("decoder", &format!("illegal_major{b}"), true).unwrap())
            })
            .collect();
        assert_eq!(covered.len(), 2);
    }

    #[test]
    fn depth_points_need_long_instruction_runs() {
        let (space, mut decoder) = setup(3);
        let mut map = CoverageMap::for_space(&space);
        let instr = Instr::nop();
        for _ in 0..7 {
            decoder.on_decode(&instr, &mut map);
        }
        assert!(!map.is_covered(space.lookup("decoder", "decode_depth_8", true).unwrap()));
        decoder.on_decode(&instr, &mut map);
        assert!(map.is_covered(space.lookup("decoder", "decode_depth_8", true).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "decode_depth_16", true).unwrap()));
        decoder.reset();
        assert_eq!(decoder.decoded_count(), 0);
    }

    #[test]
    fn unreachable_sites_exist_but_are_never_covered() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        for op in Op::ALL {
            let instr = Instr { op, rd: Gpr::A0, rs1: Gpr::A1, rs2: Gpr::A2, imm: -4 }.normalize();
            decoder.on_decode(&instr, &mut map);
        }
        assert!(!map.is_covered(space.lookup("decoder", "rvc_quadrant0", true).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "smode_csr", true).unwrap()));
    }
}
