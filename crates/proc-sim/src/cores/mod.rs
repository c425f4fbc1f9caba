//! The three simulated processor designs.
//!
//! All three cores share the same driver skeleton ([`common::CoreModel`]) and
//! differ in their configuration: predictor/cache sizes, back-end kind
//! (scoreboard vs. re-order buffer) and design-specific extra coverage sites.
//! The constants chosen give the three designs coverage spaces whose relative
//! sizes and reachability mirror the paper's benchmarks: CVA6 has the
//! smallest space but the largest share of deep points, BOOM the largest and
//! mostly-easy space.

pub mod boom;
pub mod common;
pub mod cva6;
pub mod rocket;

pub use boom::BoomCore;
pub use common::{Backend, CoreConfig, CoreExtras, CoreModel};
pub use cva6::Cva6Core;
pub use rocket::RocketCore;

use crate::bugs::BugSet;
use crate::Processor;

/// Identifies one of the three benchmark processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProcessorKind {
    /// The CVA6 (Ariane) application-class core.
    Cva6,
    /// The Rocket in-order core.
    Rocket,
    /// The BOOM superscalar out-of-order core.
    Boom,
}

impl ProcessorKind {
    /// All benchmark processors in paper order.
    pub const ALL: [ProcessorKind; 3] = [ProcessorKind::Cva6, ProcessorKind::Rocket, ProcessorKind::Boom];

    /// Returns the lower-case design name used throughout the workspace.
    pub fn name(self) -> &'static str {
        match self {
            ProcessorKind::Cva6 => "cva6",
            ProcessorKind::Rocket => "rocket",
            ProcessorKind::Boom => "boom",
        }
    }

    /// Parses a design name (case-insensitive).
    pub fn parse(text: &str) -> Option<ProcessorKind> {
        match text.trim().to_ascii_lowercase().as_str() {
            "cva6" | "ariane" => Some(ProcessorKind::Cva6),
            "rocket" => Some(ProcessorKind::Rocket),
            "boom" | "sonicboom" => Some(ProcessorKind::Boom),
            _ => None,
        }
    }

    /// Builds the processor model with the given injected bugs.
    pub fn build(self, bugs: BugSet) -> Box<dyn Processor> {
        match self {
            ProcessorKind::Cva6 => Box::new(Cva6Core::new(bugs)),
            ProcessorKind::Rocket => Box::new(RocketCore::new(bugs)),
            ProcessorKind::Boom => Box::new(BoomCore::new(bugs)),
        }
    }

    /// Builds the processor with its paper-native bugs enabled
    /// (V1–V6 on CVA6, V7 on Rocket, none on BOOM).
    pub fn build_with_native_bugs(self) -> Box<dyn Processor> {
        self.build(BugSet::native_to(self.name()))
    }
}

impl std::fmt::Display for ProcessorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trip() {
        for kind in ProcessorKind::ALL {
            assert_eq!(ProcessorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProcessorKind::parse("BOOM"), Some(ProcessorKind::Boom));
        assert_eq!(ProcessorKind::parse("pentium"), None);
    }

    #[test]
    fn build_produces_named_processors() {
        for kind in ProcessorKind::ALL {
            let processor = kind.build(BugSet::none());
            assert_eq!(processor.name(), kind.name());
            assert!(processor.coverage_space().len() > 100);
        }
    }

    #[test]
    fn native_bugs_match_the_paper_attribution() {
        assert_eq!(ProcessorKind::Cva6.build_with_native_bugs().bugs().len(), 6);
        assert_eq!(ProcessorKind::Rocket.build_with_native_bugs().bugs().len(), 1);
        assert!(ProcessorKind::Boom.build_with_native_bugs().bugs().is_empty());
    }

    #[test]
    fn coverage_space_sizes_are_pinned() {
        // Every registered point counts, including the never-covered FPU and
        // decoder sites whose ids the models do not keep: dropping one of
        // those registrations would shift every later id.
        let sizes: Vec<usize> =
            ProcessorKind::ALL.iter().map(|kind| kind.build(BugSet::none()).coverage_space().len()).collect();
        assert_eq!(sizes, [918, 1318, 2081], "cva6, rocket, boom");
    }

    #[test]
    fn coverage_space_sizes_are_ordered_like_the_paper() {
        let cva6 = Cva6Core::new(BugSet::none());
        let rocket = RocketCore::new(BugSet::none());
        let boom = BoomCore::new(BugSet::none());
        assert!(cva6.coverage_space().len() < rocket.coverage_space().len());
        assert!(rocket.coverage_space().len() < boom.coverage_space().len());
    }
}
