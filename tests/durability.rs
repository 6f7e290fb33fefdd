//! Durability suite: the write-ahead log, checkpoint/recovery, and the
//! stable external-id layer.
//!
//! The centerpiece is a differential property: an engine that is
//! killed and recovered from its WAL mid-churn — any number of times,
//! across forced checkpoints and compactions — must end **byte
//! identical** (graph, schema, statistics, view catalog, epoch) to an
//! engine that served the same delta sequence without ever restarting.
//! The property runs against both a single-partition engine and a
//! 4-shard engine (whose recovery re-partitions the recovered global
//! state).
//!
//! The suite also pins the staleness fix: deltas addressed purely by
//! external ids survive arbitrarily many slot compactions — far past
//! the bounded remap history — while slot-addressed deltas from a
//! pre-history epoch fail fast with the typed `StaleEpoch` error and
//! a `deltas_stale_rejected` metric tick.

use std::path::PathBuf;

use proptest::prelude::*;

use kaskade::core::{ConnectorDef, GraphDelta, Kaskade, Snapshot, VRef, ViewDef};
use kaskade::datasets::{generate_provenance, ProvenanceConfig};
use kaskade::graph::{Enc, Schema, Value};
use kaskade::query::{listings::LISTING_1, parse};
use kaskade::service::{
    snapshot_is_consistent, Engine, EngineConfig, ShardedConfig, ShardedEngine, SubmitError,
    SubmitOpts, WalConfig,
};

fn tiny_instance(seed: u64) -> Kaskade {
    let g = generate_provenance(&ProvenanceConfig::tiny(seed).core_only());
    let mut k = Kaskade::new(g, Schema::provenance());
    k.materialize_view(ViewDef::Connector(ConnectorDef::k_hop("Job", "Job", 2)));
    k
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kaskade-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The byte-identity witness: the full persisted form of a read state.
fn encoded(state: &Snapshot) -> Vec<u8> {
    let mut enc = Enc::new();
    state.encode(&mut enc);
    enc.into_bytes()
}

/// Deterministic churn over **external ids only** — adds Job/File
/// pairs, cross-links live vertices, retracts whole vertices — so
/// every delta is compaction-immune by construction and the same
/// script can be fed to any number of engines.
struct ExtChurn {
    rng: u64,
    next_ext: u64,
    jobs: Vec<u64>,
    files: Vec<u64>,
}

impl ExtChurn {
    fn new(seed: u64) -> Self {
        ExtChurn {
            rng: seed | 1,
            next_ext: 1,
            jobs: Vec::new(),
            files: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 11
    }

    fn fresh(&mut self) -> u64 {
        let ext = self.next_ext;
        self.next_ext += 1;
        ext
    }

    fn delta(&mut self, step: u64) -> GraphDelta {
        let mut d = GraphDelta::new();
        match self.next() % 4 {
            // a new Job writing a new File, both externally named
            0 | 1 => {
                let (je, fe) = (self.fresh(), self.fresh());
                let j = d.add_vertex_ext("Job", je, vec![("step".into(), Value::Int(step as i64))]);
                let f = d.add_vertex_ext("File", fe, vec![]);
                d.add_edge(
                    j,
                    f,
                    "WRITES_TO",
                    vec![("ts".into(), Value::Int(step as i64))],
                );
                self.jobs.push(je);
                self.files.push(fe);
            }
            // cross-link two already-live vertices purely by name
            2 if !self.jobs.is_empty() && !self.files.is_empty() => {
                let (fi, ji) = (self.next() as usize, self.next() as usize);
                let f = self.files[fi % self.files.len()];
                let j = self.jobs[ji % self.jobs.len()];
                d.add_edge(
                    VRef::External(f),
                    VRef::External(j),
                    "IS_READ_BY",
                    vec![("ts".into(), Value::Int(step as i64))],
                );
            }
            // retract a vertex by name (cascades its edges); keep a
            // floor so the churn never drains itself
            3 if self.jobs.len() > 4 => {
                let i = self.next() as usize % self.jobs.len();
                d.del_vertex_ext(self.jobs.swap_remove(i));
            }
            _ => {
                let je = self.fresh();
                d.add_vertex_ext("Job", je, vec![("step".into(), Value::Int(step as i64))]);
                self.jobs.push(je);
            }
        }
        d
    }
}

/// A durable backend under test: single or 4-shard engine,
/// restartable in place from its WAL directory.
enum Durable {
    Single(Option<Engine>),
    Sharded(Option<ShardedEngine>),
}

impl Durable {
    fn fresh(state: Snapshot, shards: usize, wal: WalConfig) -> Self {
        if shards > 1 {
            Durable::Sharded(Some(ShardedEngine::with_config(
                state,
                ShardedConfig {
                    wal: Some(wal),
                    scatter_min_vertices: 0,
                    ..ShardedConfig::hash(shards)
                },
            )))
        } else {
            Durable::Single(Some(Engine::with_config(
                state,
                EngineConfig {
                    wal: Some(wal),
                    ..EngineConfig::default()
                },
            )))
        }
    }

    fn submit(&self, delta: GraphDelta, opts: SubmitOpts) -> Result<(), SubmitError> {
        match self {
            Durable::Single(e) => e.as_ref().unwrap().submit(delta, opts),
            Durable::Sharded(e) => e.as_ref().unwrap().submit(delta, opts),
        }
    }

    fn flush(&self) -> u64 {
        match self {
            Durable::Single(e) => e.as_ref().unwrap().flush(),
            Durable::Sharded(e) => e.as_ref().unwrap().flush(),
        }
    }

    fn state(&self) -> Snapshot {
        match self {
            Durable::Single(e) => e.as_ref().unwrap().snapshot().state.clone(),
            Durable::Sharded(e) => e.as_ref().unwrap().snapshot().state.clone(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Durable::Single(e) => e.as_ref().unwrap().epoch(),
            Durable::Sharded(e) => e.as_ref().unwrap().epoch(),
        }
    }

    fn stale_rejected(&self) -> u64 {
        match self {
            Durable::Single(e) => e.as_ref().unwrap().metrics().deltas_stale_rejected,
            Durable::Sharded(e) => e.as_ref().unwrap().metrics().global.deltas_stale_rejected,
        }
    }

    /// Kills the running engine (drop joins its writer) and brings a
    /// new one up from nothing but the WAL directory.
    fn restart(&mut self, shards: usize, wal: WalConfig) {
        match self {
            Durable::Single(e) => {
                drop(e.take());
                *e = Some(
                    Engine::recover(EngineConfig {
                        wal: Some(wal),
                        ..EngineConfig::default()
                    })
                    .expect("recovery io")
                    .expect("a served log is never empty"),
                );
            }
            Durable::Sharded(e) => {
                drop(e.take());
                *e = Some(
                    ShardedEngine::recover(ShardedConfig {
                        wal: Some(wal),
                        scatter_min_vertices: 0,
                        ..ShardedConfig::hash(shards)
                    })
                    .expect("recovery io")
                    .expect("a served log is never empty"),
                );
            }
        }
    }
}

/// Feeds the identical external-id churn script to a never-restarted
/// reference engine and a WAL-backed engine that restarts at every
/// position in `restarts`, checkpointing aggressively along the way;
/// after every restart and at the end the two must agree byte for
/// byte.
fn run_differential(seed: u64, steps: u64, restarts: &[u64], shards: usize) {
    let k = tiny_instance(seed);
    let reference = Engine::from_kaskade(&k);
    let dir = tmpdir(&format!("diff{shards}-{seed:x}"));
    let wal = || WalConfig {
        fsync: false,
        checkpoint_every: 3,
        ..WalConfig::new(&dir)
    };
    let mut durable = Durable::fresh(k.snapshot(), shards, wal());

    let mut script = ExtChurn::new(seed ^ 0xC0FFEE);
    for step in 0..steps {
        let delta = script.delta(step);
        // external ids make the delta epoch-free: based_on 0 is
        // always acceptable, however many compactions have run
        reference
            .submit(delta.clone(), SubmitOpts::based_on(0))
            .expect("reference submit");
        durable
            .submit(delta, SubmitOpts::based_on(0))
            .expect("durable submit");
        let re = reference.flush();
        let de = durable.flush();
        assert_eq!(re, de, "epoch drift at step {step}");
        if restarts.contains(&step) {
            durable.restart(shards, wal());
            assert_eq!(
                durable.epoch(),
                re,
                "recovery must resume at the last published epoch (step {step})"
            );
            assert_eq!(
                encoded(&durable.state()),
                encoded(&reference.snapshot().state),
                "recovered state diverges after restart at step {step}"
            );
        }
    }

    let recovered = durable.state();
    let live = reference.snapshot().state.clone();
    assert_eq!(
        encoded(&recovered),
        encoded(&live),
        "final state diverges (shards={shards})"
    );
    assert!(snapshot_is_consistent(&recovered));
    let q = parse(LISTING_1).unwrap();
    let a = recovered.execute(&q).unwrap();
    let b = live.execute(&q).unwrap();
    assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// THE durability acceptance property: recovery is byte-identical
    /// to never having crashed — single and 4-shard engines,
    /// with forced checkpoints and mid-sequence restarts.
    #[test]
    fn recovery_is_byte_identical_to_uninterrupted_serving(
        seed in any::<u64>(),
        restarts in proptest::collection::vec(0u64..40, 1..4),
    ) {
        run_differential(seed, 40, &restarts, 1);
        run_differential(seed, 40, &restarts, 4);
    }
}

/// Recovery seeds the staleness watermark: compactions that published
/// before a crash are folded into the checkpoint (or replayed) and
/// their remaps die with the old process, so a slot-addressed delta
/// based on **any** pre-restart epoch must fail fast with
/// `StaleEpoch` — rebasing it through the recovered writer's empty
/// remap history would silently alias renumbered ids. Deltas based on
/// the recovered epoch, and external-id deltas from any epoch, still
/// apply.
#[test]
fn recovery_rejects_slot_deltas_from_before_the_restart() {
    for shards in [1usize, 4] {
        let k = tiny_instance(23);
        let dir = tmpdir(&format!("stale{shards}"));
        let wal = || WalConfig {
            fsync: false,
            checkpoint_every: 2,
            ..WalConfig::new(&dir)
        };
        let mut durable = Durable::fresh(k.snapshot(), shards, wal());
        let mut script = ExtChurn::new(23);
        for step in 0..6 {
            durable
                .submit(script.delta(step), SubmitOpts::based_on(0))
                .expect("churn submit");
            durable.flush();
        }
        let pre = durable.epoch();
        assert!(pre >= 2, "the churn must publish a few epochs");
        durable.restart(shards, wal());
        assert_eq!(durable.epoch(), pre);

        // slot ids resolved against a pre-restart snapshot: typed
        // rejection, counted in the staleness metric
        let victim = durable
            .state()
            .graph()
            .vertices_of_type("Job")
            .next()
            .unwrap();
        let mut stale = GraphDelta::new();
        stale.del_vertex(victim);
        match durable.submit(stale, SubmitOpts::based_on(pre - 1)) {
            Err(SubmitError::StaleEpoch { oldest_supported }) => {
                assert_eq!(
                    oldest_supported, pre,
                    "the watermark is the recovered epoch"
                );
            }
            other => panic!("expected StaleEpoch after recovery (shards={shards}), got {other:?}"),
        }
        assert_eq!(durable.stale_rejected(), 1);

        // the same retraction resolved against the recovered snapshot
        // applies — recovery must not over-reject current slot ids
        let before = durable.state().graph().vertex_count();
        let mut current = GraphDelta::new();
        current.del_vertex(victim);
        durable
            .submit(current, SubmitOpts::based_on(pre))
            .expect("current-epoch slot ids are not stale");
        durable.flush();
        assert_eq!(durable.state().graph().vertex_count(), before - 1);

        // and external-id deltas stay epoch-free across the restart
        let mut ext = GraphDelta::new();
        ext.add_vertex_ext("Job", 999_999, vec![]);
        durable
            .submit(ext, SubmitOpts::based_on(0))
            .expect("external-id deltas never go stale");
        durable.flush();
        assert!(snapshot_is_consistent(&durable.state()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh (non-recovery) start refuses a WAL directory that already
/// holds durable state: opening fresh would checkpoint-and-truncate
/// right over it, so a forgotten `--recover` must fail loudly, not
/// silently destroy the previous run's data. Recovery and the
/// explicit `overwrite` flag are the two sanctioned ways in.
#[test]
fn fresh_start_refuses_a_wal_dir_with_durable_state() {
    let k = tiny_instance(7);
    let dir = tmpdir("noclobber");
    let wal = || WalConfig {
        fsync: false,
        ..WalConfig::new(&dir)
    };
    let engine = Engine::with_config(
        k.snapshot(),
        EngineConfig {
            wal: Some(wal()),
            ..EngineConfig::default()
        },
    );
    let mut d = GraphDelta::new();
    d.add_vertex_ext("Job", 1, vec![]);
    engine.submit(d, SubmitOpts::based_on(0)).unwrap();
    engine.flush();
    drop(engine);

    let err = Engine::try_with_config(
        k.snapshot(),
        EngineConfig {
            wal: Some(wal()),
            ..EngineConfig::default()
        },
    )
    .expect_err("a fresh start over durable state must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    let err = ShardedEngine::try_with_config(
        k.snapshot(),
        ShardedConfig {
            wal: Some(wal()),
            ..ShardedConfig::hash(4)
        },
    )
    .expect_err("the sharded fresh start must refuse too");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);

    // the refusal lost nothing: recovery still finds the logged epoch
    let recovered = Engine::recover(EngineConfig {
        wal: Some(wal()),
        ..EngineConfig::default()
    })
    .expect("recovery io")
    .expect("durable state is present");
    assert!(recovered.epoch() >= 1);
    drop(recovered);

    // explicit overwrite is informed consent to discard it
    let fresh = Engine::try_with_config(
        k.snapshot(),
        EngineConfig {
            wal: Some(WalConfig {
                overwrite: true,
                ..wal()
            }),
            ..EngineConfig::default()
        },
    )
    .expect("overwrite opens fresh");
    assert_eq!(fresh.epoch(), 0);
    drop(fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The staleness fix, end to end: external-id deltas keep applying
/// long after the remap history (8 entries) has wrapped, while a
/// slot-addressed delta based on a pre-history epoch is rejected with
/// the typed error and counted in `deltas_stale_rejected`.
#[test]
fn external_ids_outlive_the_remap_history() {
    let k = tiny_instance(11);
    let engine = Engine::with_config(
        k.snapshot(),
        EngineConfig {
            // compact after virtually any retraction so the remap
            // history wraps quickly
            compact_dead_ratio: 0.0001,
            ..EngineConfig::default()
        },
    );

    let mut ext = 1u64;
    let mut compactions = 0u64;
    let mut rounds = 0u32;
    while compactions <= 12 {
        rounds += 1;
        assert!(rounds < 200, "compaction never triggered");
        // add an externally-named pair, then retract the previous
        // round's job — steady churn, all addressed by external ids,
        // always claiming to be based on epoch 0
        let mut d = GraphDelta::new();
        let j = d.add_vertex_ext("Job", ext, vec![]);
        let f = d.add_vertex_ext("File", ext + 1, vec![]);
        d.add_edge(j, f, "WRITES_TO", vec![]);
        if ext > 2 {
            d.del_vertex_ext(ext - 2);
        }
        ext += 2;
        engine
            .submit(d, SubmitOpts::based_on(0))
            .expect("external-id deltas never go stale");
        engine.flush();
        compactions = engine.metrics().compactions_run;
    }
    assert!(
        compactions > 8,
        "the test must outrun MAX_REMAP_HISTORY, saw {compactions}"
    );
    assert_eq!(engine.metrics().deltas_stale_rejected, 0);

    // a slot-addressed delta from the stone age is typed-rejected
    let snap = engine.snapshot();
    let victim = snap.state.graph().vertices_of_type("Job").next().unwrap();
    let mut stale = GraphDelta::new();
    stale.del_vertex(victim);
    match engine.submit(stale, SubmitOpts::based_on(0)) {
        Err(SubmitError::StaleEpoch { oldest_supported }) => {
            assert!(oldest_supported > 0, "history must have dropped epochs");
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    assert_eq!(engine.metrics().deltas_stale_rejected, 1);

    // and the equivalent external-id retraction still sails through
    // (the last round's job, `ext - 2`, is still live)
    let mut fine = GraphDelta::new();
    fine.del_vertex_ext(ext - 2);
    engine
        .submit(fine, SubmitOpts::based_on(0))
        .expect("the same retraction by external id is epoch-free");
    engine.flush();
}
