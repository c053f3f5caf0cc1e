//! Evaluation-only code: the paper's strawman baselines, workload
//! generators and measurement helpers shared by the table/figure
//! reproductions and the two cluster phases (see `README.md` in this
//! crate for the experiment → binary map).

pub mod baselines;
pub mod measure;
pub mod workload;

pub use measure::{format_duration, Timer};
pub use workload::{DevOpsWorkload, MHealthWorkload};
