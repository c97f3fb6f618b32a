//! `md5`: hashing many independent buffers, one work unit per buffer.

use std::sync::Arc;

use kernels::md5::{md5_digest, Digest};
use kernels::workload::md5_buffers;
use ompss::Runtime;

/// Parameters of the md5 benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of buffers to hash.
    pub buffers: usize,
    /// Size of each buffer in bytes.
    pub buffer_size: usize,
    /// Seed of the synthetic buffers.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            buffers: 24,
            buffer_size: 2_048,
            seed: 77,
        }
    }

    /// The input buffers.
    pub fn input(&self) -> Vec<Vec<u8>> {
        md5_buffers(self.buffers, self.buffer_size, self.seed)
    }
}

fn digests_checksum(digests: &[Digest]) -> u64 {
    let flat: Vec<u8> = digests.iter().flatten().copied().collect();
    kernels::image::fletcher64(&flat)
}

/// Sequential variant.
pub fn run_seq(p: &Params) -> u64 {
    let buffers = p.input();
    let digests: Vec<Digest> = buffers.iter().map(|b| md5_digest(b)).collect();
    digests_checksum(&digests)
}

/// Pthreads-style variant: the buffers are block-partitioned over the
/// threads; each thread fills its slice of the digest array.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let buffers = p.input();
    let mut digests: Vec<Digest> = vec![[0u8; 16]; p.buffers];
    {
        let buffers = &buffers;
        let mut remaining: &mut [Digest] = &mut digests;
        let mut start = 0usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let range = threadkit::partition::block_range(p.buffers, threads, t);
                let (mine, rest) = remaining.split_at_mut(range.len());
                remaining = rest;
                let first = start;
                start += range.len();
                scope.spawn(move || {
                    for (i, slot) in mine.iter_mut().enumerate() {
                        *slot = md5_digest(&buffers[first + i]);
                    }
                });
            }
        });
    }
    digests_checksum(&digests)
}

/// OmpSs-style variant: one task per buffer, writing one digest slot each.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let buffers: Arc<Vec<Vec<u8>>> = Arc::new(p.input());
    let digests = rt.partitioned(vec![[0u8; 16] as Digest; p.buffers], 1);
    for i in 0..p.buffers {
        let chunk = digests.chunk(i);
        let buffers = buffers.clone();
        rt.task()
            .name("md5_buffer")
            .output(&chunk)
            .spawn(move |ctx| {
                let mut slot = ctx.write_chunk(&chunk);
                slot[0] = md5_digest(&buffers[i]);
            });
    }
    rt.taskwait();
    let digests = rt.into_vec(digests);
    digests_checksum(&digests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss::RuntimeConfig;

    #[test]
    fn all_variants_agree() {
        let p = Params::small();
        let seq = run_seq(&p);
        assert_eq!(run_pthreads(&p, 1), seq);
        assert_eq!(run_pthreads(&p, 5), seq);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss(&p, &rt), seq);
    }

    #[test]
    fn checksum_depends_on_input() {
        let p = Params::small();
        let other = Params {
            seed: 78,
            ..Params::small()
        };
        assert_ne!(run_seq(&p), run_seq(&other));
    }
}
