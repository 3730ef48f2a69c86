//! The three named workloads and the store configurations they hand the
//! program.
//!
//! Load model, shared by all three: a closed loop from one process, 2
//! client threads, each with at most 16 ops in flight (`pipeline_depth`
//! 16, `burst` 32, so clients × burst = 64, the monitor's window), ABD
//! k = 1. The benchmark derives everything from the workload seed; the
//! program only sees the resulting [`StoreConfig`].

use std::time::Duration;

use blunt_net::FaultConfig;
use blunt_runtime::RecoveryMode;
use blunt_store::StoreConfig;

/// Client threads in every workload.
pub const CLIENTS: u32 = 2;
/// Max ops in flight per client.
pub const PIPELINE_DEPTH: u32 = 16;
/// Ops per burst between client barriers.
pub const BURST: u64 = 32;
/// Ops per client in one timed repetition: the fewest that leave more
/// than ten samples beyond p99.9, so a run holds many short repetitions
/// (0.5–1.1 s each at the 11–24k ops/s measured on a 2-core x86-64 VM)
/// and their median passes over the host's stalls. Fixed, so the same
/// seed always gives the same input.
pub const REP_OPS_PER_CLIENT: u64 = 6_000;

/// The store seed of timed repetition `rep` of a run with workload seed
/// `seed`: a splitmix64 mix, so every repetition gets its own key stream,
/// ring layout and fault schedule, all fixed by `seed`, and a run's median
/// covers many inputs of the workload rather than one.
#[must_use]
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed.wrapping_add((rep + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process bus, 8 shards × 3, 1024 uniform keys, half reads, no
    /// faults.
    InprocUniform,
    /// As `InprocUniform`, plus light faults, crash windows and amnesia
    /// recovery.
    InprocAmnesia,
    /// Unix-socket tier in one process, 2 shards × 3, 64 hot keys, 90%
    /// reads, no faults.
    UdsHot,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::InprocUniform,
        Workload::InprocAmnesia,
        Workload::UdsHot,
    ];

    /// The name used on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocUniform => "inproc_uniform",
            Workload::InprocAmnesia => "inproc_amnesia",
            Workload::UdsHot => "uds_hot",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs over the socket tier.
    #[must_use]
    pub fn is_socket(self) -> bool {
        self == Workload::UdsHot
    }

    /// Whether the workload injects faults (and so may lose envelopes).
    #[must_use]
    pub fn is_faulted(self) -> bool {
        self == Workload::InprocAmnesia
    }

    /// The store configuration for `ops_per_client` ops per client.
    #[must_use]
    pub fn store_config(self, seed: u64, ops_per_client: u64) -> StoreConfig {
        let (shards, keys, read_per_mille) = match self {
            Workload::InprocUniform | Workload::InprocAmnesia => (8, 1024, 500),
            Workload::UdsHot => (2, 64, 900),
        };
        let mut cfg = StoreConfig {
            shards,
            servers_per_shard: 3,
            clients: CLIENTS,
            ops_per_client,
            keys,
            pipeline_depth: PIPELINE_DEPTH,
            batch_max: 16,
            burst: BURST,
            read_per_mille,
            seed,
            faults: FaultConfig::none(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        };
        if self == Workload::InprocAmnesia {
            cfg.faults = FaultConfig::light();
            cfg.faults.crash_len = 4;
            cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
            cfg.recovery = RecoveryMode::amnesia();
        }
        cfg
    }
}
