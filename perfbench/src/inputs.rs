//! Seeded workload inputs: query texts and the delta stream.
//!
//! Everything a workload sends is built here from the run's seed
//! through the public `parse` and `GraphDelta` API, so that no change
//! to the program's own stream generators can silently alter a
//! workload.

use kaskade_core::{GraphDelta, Snapshot, VRef};
use kaskade_graph::Value;
use kaskade_query::{parse, Query};

/// SplitMix64: a small, well-distributed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Upper bounds of the `File -> File` hop window of the blast-radius
/// texts (the Listing 1 family). Job-to-job distances are even on the
/// provenance schema, so the 2-hop job connector answers every window.
pub const BLAST_WINDOWS: [usize; 4] = [5, 6, 7, 8];

/// A Listing 1 text with the given hop window and output alias. The
/// alias is part of the plan-cache key, so a fresh alias makes a text
/// the cache has never seen.
pub fn blast_text(hi: usize, alias: &str) -> String {
    format!(
        "SELECT {alias}.pipelineName, AVG(T_CPU) FROM (
           SELECT {alias}, SUM(B.CPU) AS T_CPU FROM (
             MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
                   (q_f1:File)-[r*0..{hi}]->(q_f2:File)
                   (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
             RETURN q_j1 as {alias}, q_j2 as B
           ) GROUP BY {alias}, B
         ) GROUP BY {alias}.pipelineName"
    )
}

/// The repeated blast-radius texts, parsed, indexed like
/// [`BLAST_WINDOWS`].
pub fn blast_queries() -> Vec<Query> {
    BLAST_WINDOWS
        .iter()
        .map(|&hi| parse(&blast_text(hi, "A")).expect("blast text parses"))
        .collect()
}

/// An anchored point read: the CPU of the job with external id `ext`,
/// one row per file it writes.
pub fn lookup_query(ext: u64) -> Query {
    parse(&format!(
        "SELECT A.CPU FROM (
           MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS A, f AS F
         ) WHERE id(A) = {ext}"
    ))
    .expect("lookup text parses")
}

/// One read of a read sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    /// A repeated blast-radius text (index into [`BLAST_WINDOWS`]).
    Blast(usize),
    /// A first-seen text: window index and a fresh alias number.
    Adhoc(usize, u64),
}

impl ReadOp {
    pub fn window(self) -> usize {
        match self {
            ReadOp::Blast(w) | ReadOp::Adhoc(w, _) => w,
        }
    }

    pub fn query(self, blast: &[Query]) -> Query {
        match self {
            ReadOp::Blast(w) => blast[w].clone(),
            ReadOp::Adhoc(w, n) => {
                parse(&blast_text(BLAST_WINDOWS[w], &format!("A{n}"))).expect("adhoc text parses")
            }
        }
    }
}

/// The lineage-read mix, in blocks of 16 reads: each window appears
/// three times as a repeated text and once as a first-seen text, in a
/// seeded order. Blocks keep the shares exact at any run length, so the
/// quantiles of one run do not depend on how the seed drew the mix.
#[derive(Debug, Clone)]
pub struct ReadMix {
    rng: Rng,
    block: Vec<ReadOp>,
    adhoc_share: bool,
    next_alias: u64,
}

impl ReadMix {
    /// `adhoc_share` off gives repeated texts only.
    pub fn new(seed: u64, adhoc_share: bool) -> Self {
        let mut rng = Rng::new(seed, 1);
        let next_alias = rng.below(1 << 20) * 1_000_000;
        ReadMix {
            rng,
            block: Vec::new(),
            adhoc_share,
            next_alias,
        }
    }
}

impl Iterator for ReadMix {
    type Item = ReadOp;

    fn next(&mut self) -> Option<ReadOp> {
        if self.block.is_empty() {
            let mut ops = Vec::with_capacity(16);
            for w in 0..BLAST_WINDOWS.len() {
                ops.extend([ReadOp::Blast(w); 3]);
                ops.push(if self.adhoc_share {
                    ReadOp::Adhoc(w, 0)
                } else {
                    ReadOp::Blast(w)
                });
            }
            let order = self.rng.permutation(ops.len());
            self.block = order.into_iter().map(|i| ops[i]).collect();
        }
        let mut op = self.block.pop().expect("block refilled above");
        if let ReadOp::Adhoc(w, _) = op {
            self.next_alias += 1;
            op = ReadOp::Adhoc(w, self.next_alias);
        }
        Some(op)
    }
}

/// The first external id the delta stream mints for jobs ...
pub const EXT_BASE: u64 = 1 << 40;
/// ... and for the files they write.
pub const FILE_EXT_BASE: u64 = 1 << 41;

/// What the stream knows about the job a delta inserted.
#[derive(Debug, Clone, PartialEq)]
pub struct Inserted {
    pub ext: u64,
    pub cpu: i64,
}

/// The retention stream of provenance events: delta `i` records job
/// `EXT_BASE + i` (with a CPU and a pipeline name) that read one
/// existing file and wrote one new file `FILE_EXT_BASE + i`. From
/// `i = window` on, the delta also retracts the job and the file of
/// delta `i - window`, so the live size stays constant while id slots
/// keep turning over. A job only reads files that existed before it,
/// so lineage stays acyclic, as recorded provenance is.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: Rng,
    window: u64,
    next: u64,
    /// Files of the dataset the stream starts from.
    dataset_files: u64,
}

impl DeltaStream {
    /// A stream over `base`, the state the engine starts from.
    pub fn new(seed: u64, window: u64, base: &Snapshot) -> Self {
        DeltaStream {
            rng: Rng::new(seed, 2),
            window: window.max(2),
            next: 0,
            dataset_files: base.graph().vertices_of_type("File").count() as u64,
        }
    }

    /// The next delta, with dataset files resolved against `state`.
    /// Half of the jobs read a file written earlier in the stream (by
    /// external id), the others a file of the dataset, chosen by rank:
    /// dataset files precede stream files in slot order, are never
    /// retracted, and compaction keeps their order, so the `k`-th live
    /// file is the same dataset file in every replay of the stream.
    pub fn next_delta(&mut self, state: &Snapshot) -> (GraphDelta, Inserted) {
        let i = self.next;
        self.next += 1;
        let cpu = 1 + self.rng.below(1_000) as i64;
        let pipeline = self.rng.below(17);
        let ext = EXT_BASE + i;
        let mut d = GraphDelta::new();
        let job = d.add_vertex_ext(
            "Job",
            ext,
            vec![
                ("CPU".into(), Value::Int(cpu)),
                (
                    "pipelineName".into(),
                    Value::Str(format!("pipeline{pipeline}")),
                ),
            ],
        );
        // files of deltas (i - window, i) are live; the oldest of the
        // window is retracted by this very delta
        let oldest_live = (i + 1).saturating_sub(self.window);
        let read = if i > oldest_live && self.rng.below(2) == 0 {
            VRef::External(FILE_EXT_BASE + oldest_live + self.rng.below(i - oldest_live))
        } else {
            let k = self.rng.below(self.dataset_files) as usize;
            let file = state.graph().vertices_of_type("File").nth(k);
            VRef::Existing(file.expect("dataset files stay live"))
        };
        let written = d.add_vertex_ext("File", FILE_EXT_BASE + i, vec![]);
        d.add_edge(read, job, "IS_READ_BY", vec![]);
        d.add_edge(job, written, "WRITES_TO", vec![]);
        if let Some(old) = i.checked_sub(self.window) {
            d.del_vertex_ext(EXT_BASE + old);
            d.del_vertex_ext(FILE_EXT_BASE + old);
        }
        (d, Inserted { ext, cpu })
    }
}
