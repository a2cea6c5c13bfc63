//! Crash-safety and losslessness guarantees of the one durable log
//! ([`Log`]), checked over both of its record types — the trial journal
//! (`JournalHeader`, `TrialLine`) and the online stream log
//! (`OnlineHeader`, `OnlineEvent`):
//!
//! - the torn-tail sweep truncates a log at *every* byte offset of its
//!   last record and asserts the reader always recovers exactly the
//!   committed prefix (and that a resumed log appends cleanly after any
//!   such crash point);
//! - the round-trip property drives pseudo-random records — covering
//!   the `+inf` failure sentinel, non-finite and extreme floats, and
//!   `u64` values above 2^53 — through the vendored serde_json and back,
//!   requiring bit-exact recovery;
//! - a record holding a byte that is not UTF-8 ends the committed
//!   prefix, so a resume never truncates past the end of the file;
//! - arbitrary bytes never panic the reader, and the committed prefix it
//!   reports always ends on a line boundary inside the file.

use flaml_journal::{
    DatasetInfo, JournalHeader, Log, LogError, LogHeader, TrialLine, SCHEMA_VERSION,
};
use flaml_online::{kind, OnlineEvent, OnlineHeader, ONLINE_SCHEMA_VERSION};
use flaml_store::DiskStorage;
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// A deterministic 64-bit generator (splitmix64) so the sweeps need no
/// external randomness and reproduce exactly on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a>(&mut self, names: &[&'a str]) -> &'a str {
        names[(self.next() % names.len() as u64) as usize]
    }
}

/// Losses exercising every shape a log can carry: the `+inf` failure
/// sentinel, huge/tiny magnitudes, subnormals, negative zero, and NaN.
const EDGE_LOSSES: [f64; 9] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324, // smallest subnormal
    -0.0,
    0.1,
    1e300,
];

fn loss(rng: &mut Rng, i: usize) -> f64 {
    EDGE_LOSSES
        .get(i)
        .copied()
        .unwrap_or_else(|| rng.f64_unit())
}

/// One record type of the log.
trait Format {
    type Header: LogHeader + PartialEq + std::fmt::Debug;
    type Record: Serialize + DeserializeOwned;
    /// Names this format's scratch files.
    const NAME: &'static str;
    fn header() -> Self::Header;
    /// The `i`-th pseudo-random record.
    fn record(rng: &mut Rng, i: usize) -> Self::Record;
    /// The record's float bit patterns and exact integers.
    fn bits(record: &Self::Record) -> Vec<u64>;
}

/// The trial journal.
struct Trials;

impl Format for Trials {
    type Header = JournalHeader;
    type Record = TrialLine;
    const NAME: &'static str = "trials";

    fn header() -> JournalHeader {
        JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed: u64::MAX - 3,
            time_budget: 60.0,
            max_trials: Some(40),
            sample_size_init: 10_000,
            sampling: true,
            learner_selection: "eci".into(),
            resample: "auto".into(),
            metric: "roc_auc".into(),
            estimators: vec!["lightgbm".into(), "rf".into()],
            time_source: "virtual".into(),
            // Low bits set on purpose: a reader that carries the
            // fingerprint through an f64 would round them away.
            dataset: DatasetInfo {
                name: "adult-like".into(),
                task: "binary".into(),
                rows: 48_842,
                features: 14,
                fingerprint: 0x8000_0000_0000_0003,
            },
        }
    }

    fn record(rng: &mut Rng, i: usize) -> TrialLine {
        let loss = loss(rng, i);
        let attempts = (rng.next() % 3) as usize;
        let attempt_costs: Vec<f64> = (0..=attempts).map(|_| rng.f64_unit() * 10.0).collect();
        TrialLine {
            iter: i + 1,
            learner: rng.pick(&["lightgbm", "rf", "lr"]).into(),
            config: "tree_num=4, leaf_num=4".into(),
            config_values: (0..(rng.next() % 6))
                .map(|_| rng.f64_unit() * 1e6)
                .collect(),
            sample_size: (rng.next() % 100_000) as usize,
            loss,
            status: rng
                .pick(&["ok", "failed", "timed-out", "panicked", "non-finite-loss"])
                .into(),
            mode: rng.pick(&["search", "sample-up"]).into(),
            attempts,
            cost: attempt_costs.iter().sum(),
            attempt_costs,
            total_time: rng.f64_unit() * 1e4,
            wall_secs: rng.f64_unit(),
            prepared_hits: (rng.next() % 16) as usize,
            prepared_misses: (rng.next() % 16) as usize,
            prepared_evictions: (rng.next() % 8) as usize,
            bytes_copied_saved: (rng.next() % 1_000_000) as usize,
            tree_cache_hits: (rng.next() % 16) as usize,
            tree_cache_misses: (rng.next() % 16) as usize,
            trees_saved: (rng.next() % 10_000) as usize,
            // Seeds above 2^53 catch any f64 carrier in the JSON layer.
            seed: rng.next() | (1 << 63),
            improved: rng.next().is_multiple_of(2),
            best_loss: loss,
        }
    }

    fn bits(l: &TrialLine) -> Vec<u64> {
        let mut bits = vec![
            l.loss.to_bits(),
            l.cost.to_bits(),
            l.total_time.to_bits(),
            l.wall_secs.to_bits(),
            l.best_loss.to_bits(),
            l.seed,
        ];
        bits.extend(l.config_values.iter().map(|v| v.to_bits()));
        bits.extend(l.attempt_costs.iter().map(|v| v.to_bits()));
        bits
    }
}

/// The online stream log.
struct Stream;

impl Format for Stream {
    type Header = OnlineHeader;
    type Record = OnlineEvent;
    const NAME: &'static str = "stream";

    fn header() -> OnlineHeader {
        OnlineHeader {
            schema_version: ONLINE_SCHEMA_VERSION,
            seed: u64::MAX - 5,
            task: "binary".into(),
            features: 4,
            metric: "log_loss".into(),
            estimators: vec!["lr".into(), "lightgbm".into()],
            window_chunks: 6,
            holdout_chunks: 1,
            warmup_chunks: 3,
            drift_window: 3,
            drift_threshold: 0.08,
            promote_margin: 0.01,
            probation_chunks: 2,
            refresh_every: 0,
            round_budget: 4.0,
            round_trials: 6,
        }
    }

    fn record(rng: &mut Rng, i: usize) -> OnlineEvent {
        let kinds = [
            kind::CHUNK,
            kind::EVAL,
            kind::DRIFT,
            kind::ROUND,
            kind::PROMOTE,
            kind::REJECT,
            kind::ROLLBACK,
        ];
        let mut ev = OnlineEvent::new(kinds[i % kinds.len()], i);
        ev.fingerprint = rng.next() | (1 << 63);
        ev.rows = (rng.next() % 10_000) as usize;
        ev.era = rng.next() % 16;
        ev.round = rng.next() % 16;
        ev.loss = loss(rng, i);
        // A champion-less reject journals an infinite baseline.
        ev.baseline = EDGE_LOSSES[(i + 3) % EDGE_LOSSES.len()];
        ev.recent = rng.f64_unit();
        ev.reason = rng.pick(&["warmup", "drift", "scheduled"]).into();
        ev.version = rng.next() % 16;
        ev.previous = rng.next() % 16;
        ev.model_fp = rng.next() | (1 << 63);
        ev
    }

    fn bits(e: &OnlineEvent) -> Vec<u64> {
        vec![
            e.chunk as u64,
            e.fingerprint,
            e.rows as u64,
            e.era,
            e.round,
            e.loss.to_bits(),
            e.baseline.to_bits(),
            e.recent.to_bits(),
            e.version,
            e.previous,
            e.model_fp,
        ]
    }
}

fn all_bits<F: Format>(records: &[F::Record]) -> Vec<Vec<u64>> {
    records.iter().map(F::bits).collect()
}

fn scratch<F: Format>(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("flaml-journal-crash-safety");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}_{name}_{}.jsonl", F::NAME, std::process::id()))
}

fn read<F: Format>(
    path: &Path,
) -> Result<flaml_journal::LogContents<F::Header, F::Record>, LogError> {
    Log::<F::Header, F::Record>::read(&DiskStorage, path)
}

/// Writes the header and `records` through a fresh log.
fn write<F: Format>(path: &Path, records: &[F::Record]) {
    let mut log = Log::<F::Header, F::Record>::create(&DiskStorage, path, &F::header()).unwrap();
    for r in records {
        log.append(r).unwrap();
    }
}

/// Byte offset just past the `n`-th newline.
fn line_end(bytes: &[u8], n: usize) -> usize {
    bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(n - 1)
        .map(|(i, _)| i + 1)
        .unwrap()
}

fn torn_tail_sweep<F: Format>() {
    let mut rng = Rng(11);
    let records: Vec<F::Record> = (0..3).map(|i| F::record(&mut rng, i)).collect();
    let path = scratch::<F>("sweep");
    write::<F>(&path, &records);
    let full = std::fs::read(&path).unwrap();
    let intact = read::<F>(&path).unwrap();
    assert_eq!(intact.header, F::header());
    assert_eq!(all_bits::<F>(&intact.records), all_bits::<F>(&records));
    assert_eq!(intact.committed_bytes, full.len() as u64);

    // The committed prefix before the last record: header + 2 records.
    let prefix = line_end(&full, 3);
    assert!(prefix < full.len());

    // Kill the write at every byte of the last record (from "nothing of
    // it written" through "all but the final newline"): the reader must
    // recover exactly the two committed records every time, and a
    // resumed log must append cleanly after the truncation.
    for cut in prefix..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let c =
            read::<F>(&path).unwrap_or_else(|e| panic!("cut at byte {cut} must still read: {e}"));
        assert_eq!(c.committed_bytes, prefix as u64, "cut at byte {cut}");
        assert_eq!(
            all_bits::<F>(&c.records),
            all_bits::<F>(&records[..2]),
            "cut at byte {cut}"
        );

        let mut log =
            Log::<F::Header, F::Record>::resume(&DiskStorage, &path, c.committed_bytes).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            prefix as u64,
            "cut at byte {cut}"
        );
        log.append(&records[2]).unwrap();
        drop(log);
        let healed = read::<F>(&path).unwrap();
        assert_eq!(
            all_bits::<F>(&healed.records),
            all_bits::<F>(&records),
            "heal after cut {cut}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), full, "heal after cut {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_sweep_recovers_committed_prefix_at_every_byte_trials() {
    torn_tail_sweep::<Trials>();
}

#[test]
fn torn_tail_sweep_recovers_committed_prefix_at_every_byte_stream() {
    torn_tail_sweep::<Stream>();
}

fn round_trip<F: Format>() {
    let mut rng = Rng(7);
    for i in 0..200 {
        let record = F::record(&mut rng, i);
        let json = serde_json::to_string(&record).unwrap();
        let back: F::Record = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("case {i} must parse back ({json}): {e}"));
        assert_eq!(F::bits(&record), F::bits(&back), "case {i}: {json}");
        // Serialization must be a fixed point: render -> parse -> render
        // yields the same bytes, so every non-float field survives too
        // (and NaN losses compare equal this way).
        assert_eq!(json, serde_json::to_string(&back).unwrap(), "case {i}");
    }
}

#[test]
fn records_round_trip_bit_exactly_trials() {
    round_trip::<Trials>();
}

#[test]
fn records_round_trip_bit_exactly_stream() {
    round_trip::<Stream>();
}

fn header_survives_disk<F: Format>() {
    let h = F::header();
    let json = serde_json::to_string(&h).unwrap();
    let back: F::Header = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back, h,
        "u64 fields above 2^53 must not pass through an f64"
    );

    let path = scratch::<F>("header");
    write::<F>(&path, &[]);
    let c = read::<F>(&path).unwrap();
    assert_eq!(c.header, h);
    assert!(c.records.is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn header_round_trips_and_survives_disk_trials() {
    header_survives_disk::<Trials>();
}

#[test]
fn header_round_trips_and_survives_disk_stream() {
    header_survives_disk::<Stream>();
}

fn header_damage_is_typed<F: Format>() {
    let path = scratch::<F>("damage");
    let header = serde_json::to_string(&F::header()).unwrap();
    let read_bytes = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        read::<F>(&path).map(|_| ())
    };
    // An empty file or a header that never got its newline: nothing was
    // ever committed.
    assert!(matches!(read_bytes(b""), Err(LogError::Missing)));
    assert!(matches!(
        read_bytes(header.as_bytes()),
        Err(LogError::Missing)
    ));
    // A complete but unparseable header is damage.
    assert!(matches!(
        read_bytes(b"not json\n"),
        Err(LogError::BadHeader(_))
    ));
    let version = format!("\"schema_version\":{}", F::Header::SCHEMA_VERSION);
    assert!(
        header.contains(&version),
        "header rewrite must hit the version field"
    );
    let bumped = header.replacen(&version, "\"schema_version\":999", 1) + "\n";
    assert!(matches!(
        read_bytes(bumped.as_bytes()),
        Err(LogError::SchemaVersion { found: 999, .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn header_damage_is_typed_trials() {
    header_damage_is_typed::<Trials>();
}

#[test]
fn header_damage_is_typed_stream() {
    header_damage_is_typed::<Stream>();
}

/// A record with a byte that is not UTF-8 inside a JSON string would
/// still parse after lossy decoding (as U+FFFD, two bytes longer). The
/// reader must end the committed prefix before it instead: a prefix
/// counted in decoded bytes overshoots the file, and resuming at it
/// pads the file with NULs that hide every later record.
fn invalid_utf8_ends_the_committed_prefix<F: Format>() {
    let mut rng = Rng(3);
    let records: Vec<F::Record> = (0..3).map(|i| F::record(&mut rng, i)).collect();
    let path = scratch::<F>("utf8");
    write::<F>(&path, &records[..2]);
    let mut bytes = std::fs::read(&path).unwrap();
    let first_record_end = line_end(&bytes, 2);
    // The first string value of the second record.
    let at = first_record_end
        + bytes[first_record_end..]
            .windows(3)
            .position(|w| w == b"\":\"")
            .unwrap()
        + 3;
    bytes[at] = 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let c = read::<F>(&path).unwrap();
    assert_eq!(all_bits::<F>(&c.records), all_bits::<F>(&records[..1]));
    assert_eq!(c.committed_bytes, first_record_end as u64);

    let mut log =
        Log::<F::Header, F::Record>::resume(&DiskStorage, &path, c.committed_bytes).unwrap();
    log.append(&records[2]).unwrap();
    drop(log);
    let healed = read::<F>(&path).unwrap();
    assert_eq!(
        all_bits::<F>(&healed.records),
        vec![F::bits(&records[0]), F::bits(&records[2])],
        "the record appended after resume must read back"
    );
    assert_eq!(
        healed.committed_bytes,
        std::fs::read(&path).unwrap().len() as u64
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_utf8_ends_the_committed_prefix_trials() {
    invalid_utf8_ends_the_committed_prefix::<Trials>();
}

#[test]
fn invalid_utf8_ends_the_committed_prefix_stream() {
    invalid_utf8_ends_the_committed_prefix::<Stream>();
}

/// Reads a valid log of `records` records cut at fraction `cut`, with
/// `junk` appended and the `flips` applied, and checks the reader's
/// contract on whatever it returns.
fn read_arbitrary<F: Format>(records: usize, cut: f64, junk: &[u8], flips: &[(f64, u8)]) {
    let mut rng = Rng(records as u64);
    let mut bytes = serde_json::to_string(&F::header()).unwrap().into_bytes();
    bytes.push(b'\n');
    for i in 0..records {
        bytes.extend(
            serde_json::to_string(&F::record(&mut rng, i))
                .unwrap()
                .bytes(),
        );
        bytes.push(b'\n');
    }
    bytes.truncate((bytes.len() as f64 * cut) as usize);
    bytes.extend_from_slice(junk);
    for &(at, b) in flips {
        if !bytes.is_empty() {
            let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
            bytes[i] = b;
        }
    }
    let path = scratch::<F>("arbitrary");
    std::fs::write(&path, &bytes).unwrap();
    if let Ok(c) = read::<F>(&path) {
        let end = c.committed_bytes as usize;
        assert!(
            end <= bytes.len(),
            "prefix {end} past the file's {} bytes",
            bytes.len()
        );
        assert_eq!(bytes[end - 1], b'\n', "prefix must end on a line boundary");
        let lines = bytes[..end].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(lines, c.records.len() + 1, "one record per committed line");
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        records in 0usize..4,
        cut in 0f64..1.0,
        junk in proptest::collection::vec(0u8..=255, 0..96),
        flips in proptest::collection::vec((0f64..1.0, 0u8..=255), 0..4),
    ) {
        read_arbitrary::<Trials>(records, cut, &junk, &flips);
        read_arbitrary::<Stream>(records, cut, &junk, &flips);
    }
}
