//! Builds the paper's `T_p` table on a file store: generate, insert, merge,
//! cold-restart.

use crate::oracle::user_bytes;
use crate::store::TimingStore;
use payg_core::{LoadPolicy, PageConfig};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, FileStore, LatencyStore, PageStore};
use payg_table::{PartitionSpec, Schema, Table};
use payg_workload::gen::value_at;
use payg_workload::TableProfile;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per timed block of inserts; the insert rate is the median block's.
pub const INSERT_BLOCK: u64 = 1_000;

/// The store under the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A `FileStore` in a directory of the checkout (reads hit the OS cache).
    File,
    /// A `LatencyStore` adding this much per read call over the `FileStore`.
    Latency(Duration),
}

impl StoreKind {
    /// Short name for the fingerprint.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::File => "file",
            StoreKind::Latency(_) => "latency+file",
        }
    }

    /// Added latency per read call, in µs.
    pub fn latency_us(self) -> u64 {
        match self {
            StoreKind::File => 0,
            StoreKind::Latency(d) => d.as_micros() as u64,
        }
    }
}

/// Spends a simulated read latency by yielding the cpu until it has
/// passed. A real sleep wakes on the virtual machine's timer, whose lateness
/// comes and goes with the host's load and would swamp the 150 µs being
/// modelled; yielding keeps the latency exact while other runnable threads
/// still get the cpu first.
fn yield_until(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::thread::yield_now();
    }
}

/// A directory removed again on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    /// Creates (empty) `path`.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir(path))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One built table with the handles the benchmark measures through.
pub struct Built {
    /// The table, merged and cold.
    pub table: Table,
    /// Its private resource manager.
    pub resman: ResourceManager,
    /// The timing decorator every page read and write goes through.
    pub store: Arc<TimingStore>,
    /// Insert rates in rows per second, one per block of [`INSERT_BLOCK`]
    /// rows, timing the calls into `Table::insert` only.
    pub insert_rates: Vec<f64>,
    /// Seconds spent in `delta_merge_all`.
    pub merge_s: f64,
    /// Wall seconds for the whole set-up: generate, insert, merge, restart.
    pub setup_s: f64,
    /// Bytes of user data inserted.
    pub user_bytes: u64,
    // Dropped last: the table's files live here.
    _dir: DataDir,
}

/// The `T_p` schema: the PK resident with its index, every other column
/// page-loadable (the partition's policy), no secondary index.
pub fn schema(profile: &TableProfile) -> Schema {
    let mut cols = profile
        .schema(false)
        .expect("generated schema is valid")
        .columns()
        .to_vec();
    cols[0].load_policy = Some(LoadPolicy::FullyResident);
    Schema::new(cols)
        .and_then(|s| s.with_primary_key(&profile.columns[0].name))
        .expect("generated schema is valid")
}

/// Generates `profile`'s rows into a fresh `T_p` table in `dir`, merges
/// it, and cold-restarts it.
pub fn build(profile: &TableProfile, kind: StoreKind, dir: PathBuf) -> Built {
    let started = Instant::now();
    let dir = DataDir::create(dir).expect("create the table's data directory");
    let file = FileStore::open(&dir.0).expect("open file store");
    let inner: Arc<dyn PageStore> = match kind {
        StoreKind::File => Arc::new(file),
        StoreKind::Latency(d) => {
            Arc::new(LatencyStore::with_sleeper(file, d, Arc::new(yield_until)))
        }
    };
    let store = Arc::new(TimingStore::new(inner));
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, resman.clone());
    let table = Table::create(
        pool,
        PageConfig::default(),
        schema(profile),
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .expect("create table");
    let mut block = Duration::ZERO;
    let mut rates = Vec::new();
    let mut bytes = 0;
    for r in 0..profile.rows {
        let row: Vec<_> = (0..profile.columns.len())
            .map(|c| value_at(profile, c, r))
            .collect();
        bytes += user_bytes(&row);
        let t0 = Instant::now();
        table.insert(row).expect("insert a generated row");
        block += t0.elapsed();
        if (r + 1) % INSERT_BLOCK == 0 {
            rates.push(INSERT_BLOCK as f64 / block.as_secs_f64());
            block = Duration::ZERO;
        }
    }
    let t0 = Instant::now();
    table.delta_merge_all().expect("merge the generated rows");
    let merge_s = t0.elapsed().as_secs_f64();
    table.unload_all();
    resman.quiesce();
    Built {
        table,
        resman,
        store,
        insert_rates: rates,
        merge_s,
        setup_s: started.elapsed().as_secs_f64(),
        user_bytes: bytes,
        _dir: dir,
    }
}
