//! The four workloads and the command line.

use crate::oracle::Shape;
use crate::setup::StoreKind;
use std::time::Duration;

/// A named set-up and load (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointWarm,
    ScanColdFast,
    ScanColdSlow,
    IngestMerge,
}

/// How a workload is set up and loaded.
pub struct Params {
    pub rows: u64,
    pub store: StoreKind,
    /// The paged pool's upper limit as a share of the table's paged bytes;
    /// `None` leaves the pool unlimited.
    pub pool_share: Option<f64>,
    /// Closed-loop reader sessions.
    pub sessions: usize,
    /// Scan workers per query (`ScanOptions::with_workers`); 1 = sequential.
    pub scan_workers: usize,
    pub mix: &'static [(Shape, u32)],
    /// Queries run once, untimed, before the window.
    pub warmup: usize,
    /// Rows per ingest batch; `Some` makes a writer run beside one reader.
    pub ingest_batch: Option<u64>,
    /// Keep the cpus busy with yielding threads while measuring
    /// ([`crate::client::KeepAwake`]): the cold workloads, whose clients
    /// block on every page load.
    pub keep_awake: bool,
}

/// Columns of every generated table, the primary key included.
pub const COLUMNS: usize = 17;

const POINT: &[(Shape, u32)] = &[(Shape::PkNum, 1), (Shape::PkStr, 1), (Shape::PkStar, 1)];
const SCAN: &[(Shape, u32)] = &[
    (Shape::NumCount, 1),
    (Shape::StrCount, 1),
    (Shape::RangeSum, 1),
];
// Mostly `Q_pk^num` and `Q_num^count`; the other shapes ride along at a
// small share so their medians come from the window too.
const INGEST: &[(Shape, u32)] = &[
    (Shape::PkNum, 4),
    (Shape::NumCount, 2),
    (Shape::PkStr, 1),
    (Shape::PkStar, 1),
    (Shape::StrCount, 1),
    (Shape::RangeSum, 1),
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointWarm,
        Workload::ScanColdFast,
        Workload::ScanColdSlow,
        Workload::IngestMerge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWarm => "point_warm",
            Workload::ScanColdFast => "scan_cold_fast",
            Workload::ScanColdSlow => "scan_cold_slow",
            Workload::IngestMerge => "ingest_merge",
        }
    }

    pub fn params(self) -> Params {
        let scan = Params {
            rows: 200_000,
            store: StoreKind::File,
            pool_share: Some(0.25),
            sessions: 1,
            scan_workers: 1,
            mix: SCAN,
            warmup: 60,
            ingest_batch: None,
            keep_awake: true,
        };
        match self {
            Workload::PointWarm => Params {
                pool_share: None,
                sessions: 2,
                mix: POINT,
                warmup: 6_000,
                keep_awake: false,
                ..scan
            },
            Workload::ScanColdFast => scan,
            Workload::ScanColdSlow => Params {
                store: StoreKind::Latency(Duration::from_micros(150)),
                sessions: 2,
                scan_workers: 2,
                ..scan
            },
            Workload::IngestMerge => Params {
                rows: 60_000,
                pool_share: None,
                mix: INGEST,
                warmup: 2_000,
                ingest_batch: Some(2_000),
                keep_awake: false,
                ..scan
            },
        }
    }
}

/// The command line: `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parses the process's arguments.
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds: u64 = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    pub fn usage() -> String {
        format!(
            "usage: e2e --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        )
    }
}
