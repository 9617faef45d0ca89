//! # skelcl-osem — the list-mode OSEM case study (paper Section IV-B)
//!
//! "List-Mode Ordered Subset Expectation Maximization is a time-intensive,
//! production-quality algorithm from a real-world application in medical
//! image reconstruction. It is used to reconstruct three-dimensional images
//! from huge sets of so-called events recorded in positron emission
//! tomography (PET). Each event represents a line of response (LOR) which
//! intersects the scanned volume."
//!
//! The paper's patient data cannot be shipped, so [`events`] generates
//! synthetic list-mode data from a known activity [`phantom`] inside a
//! modelled scanner ([`geometry`]); [`siddon`] computes LOR paths through
//! the voxel volume. Four reconstruction implementations share that math:
//!
//! * [`seq`] — the sequential reference (paper Listing 3),
//! * [`skelcl_impl`] — the SkelCL version (paper Listing 4),
//! * [`opencl_impl`] — hand-written OpenCL, host-staged multi-GPU merging,
//! * [`cuda_impl`] — hand-written CUDA with one host thread per device.
//!
//! # Reproducibility
//!
//! The modeled times are deterministic, but the reconstructed image is not
//! bit-reproducible when the simulator runs work-groups on several host
//! threads: the error-image kernel (`compute_c`) accumulates with float
//! atomics, which commit in host-thread order, and float addition is not
//! associative. Bit-identity checks of the image therefore pin one host
//! thread with `VGPU_THREADS=1`; with it, the merge of the per-device error
//! images folds in a fixed order and the image is identical run to run.

pub mod cuda_impl;
pub mod events;
pub mod geometry;
pub mod metrics;
pub mod opencl_impl;
pub mod phantom;
pub mod seq;
pub mod siddon;
pub mod skelcl_impl;

pub use events::EventGenerator;
pub use geometry::{Event, Scanner, Volume};
pub use phantom::Phantom;

/// Extra bytes charged per scattered (uncoalesced) read beyond the element
/// itself: Tesla-class GPUs move a full 64-byte memory segment per
/// uncoalesced access, so a 4-byte gather costs 64 bytes of bandwidth.
pub const UNCOALESCED_READ_EXTRA: usize = 60;

/// Extra bytes per uncoalesced atomic read-modify-write: two 64-byte
/// segment crossings (read + write) minus the 8 bytes already counted.
pub const UNCOALESCED_ATOMIC_EXTRA: usize = 120;

/// Contiguous near-equal `(offset, len)` blocks of `len` over `n` parts —
/// the hand-written variants partition events and image rows with this.
pub fn block_split(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.max(1);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for d in 0..n {
        let l = base + usize::from(d < extra);
        out.push((off, l));
        off += l;
    }
    out
}

/// Parameters of one OSEM experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsemParams {
    pub volume: Volume,
    pub total_events: usize,
    pub n_subsets: usize,
    pub seed: u64,
}

impl OsemParams {
    /// The paper's experiment: "a typical data set of about 10⁷ events for
    /// \[a\] 150×150×280 PET image. The data set is split into 10 equally
    /// sized subsets."
    pub fn paper_scale() -> Self {
        OsemParams {
            volume: Volume::paper_scale(),
            total_events: 10_000_000,
            n_subsets: 10,
            seed: 2011,
        }
    }

    /// Scaled-down default used by the figures harness: same subset
    /// structure, smaller volume and event count.
    pub fn bench_scale() -> Self {
        OsemParams {
            volume: Volume::bench_scale(),
            total_events: 1_200_000,
            n_subsets: 10,
            seed: 2011,
        }
    }

    /// Tiny run for tests.
    pub fn test_scale() -> Self {
        OsemParams {
            volume: Volume::test_scale(),
            total_events: 4_000,
            n_subsets: 2,
            seed: 2011,
        }
    }

    /// Generate the event subsets for this run (deterministic).
    pub fn generate_subsets(&self) -> Vec<Vec<Event>> {
        EventGenerator::new(&self.volume, self.seed).subsets(self.total_events, self.n_subsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_split_covers_exactly() {
        for (len, n) in [(100, 4), (101, 4), (3, 8), (0, 2)] {
            let blocks = block_split(len, n);
            assert_eq!(blocks.len(), n);
            let mut next = 0;
            for (off, l) in blocks {
                assert_eq!(off, next);
                next += l;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn paper_params_match_the_paper() {
        let p = OsemParams::paper_scale();
        assert_eq!(p.total_events, 10_000_000);
        assert_eq!(p.n_subsets, 10);
        assert_eq!(p.volume.dims(), [150, 150, 280]);
    }

    #[test]
    fn generated_subsets_are_deterministic() {
        let p = OsemParams::test_scale();
        let a = p.generate_subsets();
        let b = p.generate_subsets();
        assert_eq!(a, b);
    }
}
