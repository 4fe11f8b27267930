//! # cqa-bench — experiment harnesses for every figure of the paper
//!
//! The binaries in `src/bin/` regenerate the evaluation artifacts:
//!
//! | Binary        | Paper artifact | What it prints |
//! |---------------|----------------|----------------|
//! | `figure4`     | Figure 4       | disk accesses vs. query area, joint vs. separate, for constraint (expt 1-A) and relational (expt 1-B) data |
//! | `figure5`     | Figure 5       | disk accesses vs. query length, joint vs. separate, for constraint (expt 2-A) and relational (expt 2-B) data |
//! | `expt3`       | experiment 3 (reconstructed) | 500 mixed queries: total accesses under joint, separate, and advisor-chosen indexing |
//! | `selectivity` | §5.3 prose claim | the low-selectivity-conjunction scenario: joint ≈ logarithmic vs. separate ≈ linear |
//!
//! The workload generator reproduces the §5.4 protocol exactly (10,000
//! data rectangles with extents in `\[1,100\]` and corners in `\[0,3000\]`²; 100
//! query rectangles from the same distribution; 500 for experiment 3),
//! seeded for reproducibility.

pub mod experiments;
pub mod report;
pub mod workload;
