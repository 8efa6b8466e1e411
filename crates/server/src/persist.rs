//! Durable engine state: XML snapshot export/import plus an append-only
//! update journal with replay.
//!
//! Layout of a state directory (`upsim serve --state-dir <dir>`):
//!
//! * `snapshot.xml` — the last saved [`ModelSnapshot`] as one XML
//!   document: an `<engine-state epoch="..">` envelope around the
//!   existing interchange formats (the `<infrastructure>` document of
//!   [`Infrastructure::to_xml`] and the `<activity>` document of
//!   [`CompositeService::to_xml`]). Written atomically: a temp file is
//!   fsynced and renamed over the old snapshot, so a crash mid-save
//!   leaves the previous snapshot intact.
//! * `journal.log` — one line per applied [`UpdateCommand`] in the wire
//!   syntax of the `UPDATE` verb (`CONNECT a b`, `DISCONNECT a b`,
//!   `SERVICE name a1 a2 ...`), prefixed with the epoch the update
//!   published, fsynced on append.
//!
//! A restart loads `snapshot.xml` (or a caller-provided fallback model),
//! then replays every journal line whose epoch is newer than the
//! snapshot's, resuming at the exact pre-restart epoch without
//! re-evaluating anything. A truncated final journal line (torn write at
//! crash) is tolerated — [`Journal::open`] trims it before appending —
//! while garbage anywhere earlier in the file is reported as
//! [`PersistError::Corrupt`].
//!
//! Caveat: the journal records a substituted service as its atomic
//! sequence (`SERVICE <name> <atomics...>`), i.e. replay reconstructs it
//! with [`CompositeService::sequential`] — exactly what the `UPDATE
//! SERVICE` wire verb accepts. Services with richer control flow survive
//! through `snapshot.xml`, not through the journal.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dependability::{ComponentObservations, ParamEstimator};
use upsim_core::infrastructure::Infrastructure;
use upsim_core::service::CompositeService;

use crate::engine::UpdateCommand;
use crate::protocol::{parse_update_wire, render_update_wire};
use crate::snapshot::ModelSnapshot;

/// File name of the XML snapshot inside a state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.xml";
/// File name of the append-only update journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// File name of the model manifest at the root of a multi-model state
/// directory. Absent on a legacy (PR 2) single-model layout, where
/// `snapshot.xml` + `journal.log` live directly under the root.
pub const MANIFEST_FILE: &str = "models.txt";

/// First line of a well-formed manifest.
const MANIFEST_HEADER: &str = "upsim-models v1";

/// A persistence failure, split by what went wrong.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O failure (message includes the path).
    Io(String),
    /// The journal (or snapshot envelope) is malformed at `line`.
    Corrupt { line: usize, reason: String },
    /// Replaying a journal entry against the model failed.
    Model(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "{msg}"),
            PersistError::Corrupt { line, reason } => {
                write!(f, "corrupt journal at line {line}: {reason}")
            }
            PersistError::Model(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(context: &str, path: &Path, err: std::io::Error) -> PersistError {
    PersistError::Io(format!("{context} '{}': {err}", path.display()))
}

/// `<dir>/snapshot.xml`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// `<dir>/journal.log`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// `<root>/models.txt`.
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join(MANIFEST_FILE)
}

/// `<root>/<model>/` — one registered model's persistence subtree.
pub fn model_dir(root: &Path, model: &str) -> PathBuf {
    root.join(model)
}

/// Atomically writes the manifest of registered model names at the root of
/// a multi-model state directory (one name per line under a version
/// header). Same temp-fsync-rename discipline as [`save_snapshot`].
pub fn write_manifest(root: &Path, models: &[String]) -> Result<PathBuf, PersistError> {
    let final_path = manifest_path(root);
    let tmp_path = root.join(format!("{MANIFEST_FILE}.tmp"));
    let mut body = String::from(MANIFEST_HEADER);
    body.push('\n');
    for model in models {
        body.push_str(model);
        body.push('\n');
    }
    let mut tmp = File::create(&tmp_path).map_err(|e| io_err("cannot create", &tmp_path, e))?;
    tmp.write_all(body.as_bytes())
        .and_then(|()| tmp.sync_all())
        .map_err(|e| io_err("cannot write", &tmp_path, e))?;
    drop(tmp);
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| io_err("cannot publish", &final_path, e))?;
    if let Ok(dir_handle) = File::open(root) {
        let _ = dir_handle.sync_all();
    }
    Ok(final_path)
}

/// Reads the manifest at `root`. `Ok(None)` means no manifest — a legacy
/// single-model state directory. A present-but-malformed manifest is
/// [`PersistError::Corrupt`].
pub fn read_manifest(root: &Path) -> Result<Option<Vec<String>>, PersistError> {
    let path = manifest_path(root);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| io_err("cannot read", &path, e))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => {
            return Err(PersistError::Corrupt {
                line: 1,
                reason: format!(
                    "manifest header must be `{MANIFEST_HEADER}`, found `{}`",
                    other.unwrap_or("")
                ),
            });
        }
    }
    let mut models = Vec::new();
    for (idx, line) in lines.enumerate() {
        let name = line.trim();
        if name.is_empty() {
            continue;
        }
        if !crate::engine::valid_model_name(name) {
            return Err(PersistError::Corrupt {
                line: idx + 2,
                reason: format!("invalid model name `{name}` in manifest"),
            });
        }
        models.push(name.to_string());
    }
    if models.is_empty() {
        return Err(PersistError::Corrupt {
            line: 1,
            reason: "manifest lists no models".into(),
        });
    }
    Ok(Some(models))
}

/// Serializes a snapshot as the `<engine-state>` envelope around the
/// infrastructure and service interchange documents. A non-empty
/// parameter layer adds an `<observations>` child carrying every
/// component's sufficient statistics (integer seconds), so a restore
/// rebuilds the exact posterior state; an estimator that never saw an
/// event adds nothing, keeping the document byte-identical to the
/// pre-parameter-layer format.
pub fn snapshot_to_xml(snapshot: &ModelSnapshot) -> String {
    let infrastructure = xmlio::parse(&snapshot.infrastructure.to_xml())
        .expect("self-produced infrastructure XML parses");
    let service =
        xmlio::parse(&snapshot.service.to_xml()).expect("self-produced service XML parses");
    let mut root = xmlio::Element::new("engine-state")
        .with_attr("epoch", snapshot.epoch.to_string())
        .with_child(infrastructure.root)
        .with_child(service.root);
    if !snapshot.params.is_empty() {
        root.push_element(observations_to_xml(&snapshot.params));
    }
    xmlio::to_string_pretty(&xmlio::Document::new(root))
}

/// `<observations total="..">` with one `<component>` per observed device:
/// the sufficient statistics of [`ComponentObservations`], verbatim.
fn observations_to_xml(params: &ParamEstimator) -> xmlio::Element {
    let mut el = xmlio::Element::new("observations")
        .with_attr("total", params.observations_total().to_string());
    for (name, obs) in params.iter() {
        el.push_element(
            xmlio::Element::new("component")
                .with_attr("name", name)
                .with_attr("state", if obs.up { "up" } else { "down" })
                .with_attr("entered", obs.entered_ts.to_string())
                .with_attr("last", obs.last_ts.to_string())
                .with_attr("up-closed", obs.up_closed.to_string())
                .with_attr("up-seconds", obs.up_seconds.to_string())
                .with_attr("down-closed", obs.down_closed.to_string())
                .with_attr("down-seconds", obs.down_seconds.to_string()),
        );
    }
    el
}

fn observations_from_xml(el: &xmlio::Element) -> Result<ParamEstimator, PersistError> {
    let corrupt = |reason: String| PersistError::Corrupt { line: 1, reason };
    let attr_u64 = |c: &xmlio::Element, name: &str| -> Result<u64, PersistError> {
        c.attr(name)
            .ok_or_else(|| corrupt(format!("<component> misses `{name}` attribute")))?
            .parse()
            .map_err(|_| corrupt(format!("<component> attribute `{name}` is not an integer")))
    };
    let mut params = ParamEstimator::new();
    for component in el.children_named("component") {
        let name = component
            .attr("name")
            .ok_or_else(|| corrupt("<component> misses `name` attribute".into()))?;
        let up = match component.attr("state") {
            Some("up") => true,
            Some("down") => false,
            other => {
                return Err(corrupt(format!(
                    "<component name=\"{name}\"> state must be `up` or `down`, found `{}`",
                    other.unwrap_or("")
                )));
            }
        };
        params.insert(
            name,
            ComponentObservations {
                up,
                entered_ts: attr_u64(component, "entered")?,
                last_ts: attr_u64(component, "last")?,
                up_closed: attr_u64(component, "up-closed")?,
                up_seconds: attr_u64(component, "up-seconds")?,
                down_closed: attr_u64(component, "down-closed")?,
                down_seconds: attr_u64(component, "down-seconds")?,
            },
        );
    }
    params.set_total(
        el.attr("total")
            .ok_or_else(|| corrupt("<observations> misses `total` attribute".into()))?
            .parse()
            .map_err(|_| corrupt("<observations> total is not an integer".into()))?,
    );
    Ok(params)
}

/// Parses a snapshot from the [`snapshot_to_xml`] format, re-validating
/// the embedded models.
pub fn snapshot_from_xml(xml: &str) -> Result<ModelSnapshot, PersistError> {
    let doc = xmlio::parse(xml).map_err(|e| PersistError::Corrupt {
        line: 1,
        reason: format!("snapshot is not well-formed XML: {e}"),
    })?;
    if doc.root.name != "engine-state" {
        return Err(PersistError::Corrupt {
            line: 1,
            reason: format!("expected <engine-state>, found <{}>", doc.root.name),
        });
    }
    let epoch: u64 = doc
        .root
        .attr("epoch")
        .ok_or_else(|| PersistError::Corrupt {
            line: 1,
            reason: "missing epoch attribute on <engine-state>".into(),
        })?
        .parse()
        .map_err(|_| PersistError::Corrupt {
            line: 1,
            reason: "epoch attribute is not an integer".into(),
        })?;
    let compact = xmlio::Writer::new(xmlio::WriteOptions::compact());
    let infra_el = doc
        .root
        .child_named("infrastructure")
        .ok_or_else(|| PersistError::Corrupt {
            line: 1,
            reason: "missing <infrastructure> child".into(),
        })?;
    let service_el = doc
        .root
        .child_named("activity")
        .ok_or_else(|| PersistError::Corrupt {
            line: 1,
            reason: "missing <activity> child".into(),
        })?;
    let infrastructure = Infrastructure::from_xml(&compact.element(infra_el))
        .map_err(|e| PersistError::Model(format!("snapshot infrastructure: {e}")))?;
    let service = CompositeService::from_xml(&compact.element(service_el))
        .map_err(|e| PersistError::Model(format!("snapshot service: {e}")))?;
    let mut snapshot = ModelSnapshot::restored(infrastructure, service, epoch);
    // Absent <observations> = a legacy snapshot (or an authored-only one):
    // the estimator starts empty either way.
    if let Some(obs_el) = doc.root.child_named("observations") {
        snapshot.params = std::sync::Arc::new(observations_from_xml(obs_el)?);
    }
    Ok(snapshot)
}

/// Atomically writes `snapshot.xml` into `dir`; returns the final path.
pub fn save_snapshot(dir: &Path, snapshot: &ModelSnapshot) -> Result<PathBuf, PersistError> {
    let final_path = snapshot_path(dir);
    let tmp_path = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let xml = snapshot_to_xml(snapshot);
    let mut tmp = File::create(&tmp_path).map_err(|e| io_err("cannot create", &tmp_path, e))?;
    tmp.write_all(xml.as_bytes())
        .and_then(|()| tmp.sync_all())
        .map_err(|e| io_err("cannot write", &tmp_path, e))?;
    drop(tmp);
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| io_err("cannot publish", &final_path, e))?;
    // Make the rename itself durable (best effort; not all platforms allow
    // fsync on a directory handle).
    if let Ok(dir_handle) = File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(final_path)
}

/// Epoch recorded in `dir`'s on-disk snapshot, if one exists and parses.
pub fn saved_epoch(dir: &Path) -> Option<u64> {
    let xml = std::fs::read_to_string(snapshot_path(dir)).ok()?;
    let doc = xmlio::parse(&xml).ok()?;
    doc.root.attr("epoch")?.parse().ok()
}

/// One replayable journal line: the update and the epoch it published.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    pub epoch: u64,
    pub command: UpdateCommand,
}

/// Parses the journal bytes, returning the entries and the byte length of
/// the valid prefix. Only newline-terminated (committed) lines count:
/// they must decode as UTF-8, parse, and carry strictly increasing
/// epochs, else the journal is corrupt. An unterminated final line —
/// whatever its content, since a torn write can leave any prefix of a
/// record, including one that happens to parse — is dropped and excluded
/// from the valid prefix. Offsets are raw file bytes (lines are split on
/// `b'\n'` before any UTF-8 decoding), so `Journal::open`'s trim always
/// lands on a real record boundary.
fn scan_journal(bytes: &[u8]) -> Result<(Vec<JournalEntry>, usize), PersistError> {
    let mut entries = Vec::new();
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        line_no += 1;
        let rest = &bytes[offset..];
        let (line_bytes, terminated) = match rest.iter().position(|&b| b == b'\n') {
            Some(pos) => (&rest[..pos], true),
            None => (rest, false),
        };
        let line_end = offset + line_bytes.len() + usize::from(terminated);
        if !terminated {
            // Torn final line: tolerated, trimmed by `Journal::open`.
            break;
        }
        let parsed = std::str::from_utf8(line_bytes)
            .map_err(|_| "line is not valid UTF-8".to_string())
            .and_then(|line| {
                if line.trim().is_empty() {
                    Ok(None)
                } else {
                    parse_journal_line(line).map(Some)
                }
            });
        match parsed {
            Ok(None) => {}
            Ok(Some(entry)) => {
                if let Some(previous) = entries.last() {
                    let prev: &JournalEntry = previous;
                    if entry.epoch <= prev.epoch {
                        return Err(PersistError::Corrupt {
                            line: line_no,
                            reason: format!(
                                "epoch {} does not advance past {}",
                                entry.epoch, prev.epoch
                            ),
                        });
                    }
                }
                entries.push(entry);
            }
            Err(reason) => {
                return Err(PersistError::Corrupt {
                    line: line_no,
                    reason,
                });
            }
        }
        valid_len = line_end;
        offset = line_end;
    }
    Ok((entries, valid_len))
}

fn parse_journal_line(line: &str) -> Result<JournalEntry, String> {
    let (epoch, rest) = line
        .trim_end()
        .split_once(' ')
        .ok_or_else(|| format!("expected `<epoch> <command>`, got `{line}`"))?;
    let epoch: u64 = epoch
        .parse()
        .map_err(|_| format!("epoch `{epoch}` is not an integer"))?;
    let command = parse_update_wire(rest)?;
    Ok(JournalEntry { epoch, command })
}

/// Reads and validates the whole journal at `path` (missing file = empty
/// journal). A torn final line is silently dropped.
pub fn read_journal(path: &Path) -> Result<Vec<JournalEntry>, PersistError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let bytes = std::fs::read(path).map_err(|e| io_err("cannot read", path, e))?;
    scan_journal(&bytes).map(|(entries, _)| entries)
}

/// An open, append-only update journal. Every [`Journal::append`] is
/// fsynced before it returns — the durability point of `UPDATE`.
pub struct Journal {
    file: File,
    entries: u64,
}

impl Journal {
    /// Opens (or creates) `dir`'s journal for appending, validating the
    /// existing contents and truncating a torn final line so the next
    /// append starts on a clean record boundary.
    pub fn open(dir: &Path) -> Result<Journal, PersistError> {
        let path = journal_path(dir);
        let mut entries = 0u64;
        if path.exists() {
            let bytes = std::fs::read(&path).map_err(|e| io_err("cannot read", &path, e))?;
            let (scanned, valid_len) = scan_journal(&bytes)?;
            entries = scanned.len() as u64;
            if valid_len < bytes.len() {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("cannot open", &path, e))?;
                file.set_len(valid_len as u64)
                    .and_then(|()| file.sync_all())
                    .map_err(|e| io_err("cannot trim torn tail of", &path, e))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("cannot open", &path, e))?;
        Ok(Journal { file, entries })
    }

    /// Appends one update line (`<epoch> <wire command>`) and fsyncs it.
    pub fn append(&mut self, epoch: u64, command: &UpdateCommand) -> std::io::Result<()> {
        let line = format!("{epoch} {}\n", render_update_wire(command));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.entries += 1;
        Ok(())
    }

    /// Number of committed journal entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// What a `SAVE` did: the epoch captured and where it landed.
#[derive(Debug, Clone)]
pub struct SaveSummary {
    pub epoch: u64,
    pub path: PathBuf,
}

/// What [`restore`] reconstructed.
#[derive(Debug)]
pub struct RestoreReport {
    /// The model at the exact pre-restart epoch.
    pub snapshot: ModelSnapshot,
    /// Total entries in the journal (including ones the snapshot already
    /// covered).
    pub journal_entries: usize,
    /// Journal suffix entries actually replayed on top of the snapshot.
    pub replayed: usize,
    /// `true` when `snapshot.xml` existed (vs. starting from `fallback`).
    pub from_snapshot: bool,
}

/// Reconstructs the engine state from `dir`: load `snapshot.xml` when
/// present (otherwise start from `fallback`, the freshly built epoch-0
/// model), then replay the journal suffix with newer epochs.
pub fn restore(dir: &Path, fallback: ModelSnapshot) -> Result<RestoreReport, PersistError> {
    let spath = snapshot_path(dir);
    let (mut snapshot, from_snapshot) = if spath.exists() {
        let xml = std::fs::read_to_string(&spath).map_err(|e| io_err("cannot read", &spath, e))?;
        (snapshot_from_xml(&xml)?, true)
    } else {
        (fallback, false)
    };
    let entries = read_journal(&journal_path(dir))?;
    let journal_entries = entries.len();
    let mut replayed = 0usize;
    for entry in &entries {
        if entry.epoch <= snapshot.epoch {
            continue;
        }
        snapshot.apply(&entry.command).map_err(|err| {
            PersistError::Model(format!(
                "replaying `{}` (epoch {}): {err}",
                render_update_wire(&entry.command),
                entry.epoch
            ))
        })?;
        snapshot.epoch = entry.epoch;
        replayed += 1;
    }
    snapshot.view_generation = snapshot.epoch;
    Ok(RestoreReport {
        snapshot,
        journal_entries,
        replayed,
        from_snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_line(epoch: u64, wire: &str) -> String {
        format!("{epoch} {wire}\n")
    }

    #[test]
    fn journal_lines_round_trip_through_wire_syntax() {
        for wire in ["CONNECT a b", "DISCONNECT a b", "SERVICE printS s1 s2"] {
            let entry = parse_journal_line(&format!("7 {wire}")).expect("parses");
            assert_eq!(entry.epoch, 7);
            assert_eq!(render_update_wire(&entry.command), wire);
        }
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let mut bytes = Vec::new();
        bytes.extend(entry_line(1, "CONNECT a b").as_bytes());
        bytes.extend(entry_line(2, "DISCONNECT a b").as_bytes());
        bytes.extend(b"3 CONN"); // torn write: no newline, half a verb
        let (entries, valid_len) = scan_journal(&bytes).expect("torn tail tolerated");
        assert_eq!(entries.len(), 2);
        assert_eq!(valid_len, bytes.len() - b"3 CONN".len());
    }

    #[test]
    fn unterminated_but_parseable_final_line_is_not_committed() {
        let mut bytes = Vec::new();
        bytes.extend(entry_line(1, "CONNECT a b").as_bytes());
        bytes.extend(b"2 DISCONNECT a b"); // parses, but the fsync'd newline is missing
        let (entries, valid_len) = scan_journal(&bytes).expect("scan succeeds");
        assert_eq!(entries.len(), 1);
        assert_eq!(valid_len, entry_line(1, "CONNECT a b").len());
    }

    #[test]
    fn garbage_mid_file_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend(entry_line(1, "CONNECT a b").as_bytes());
        bytes.extend(b"this is not a journal line\n");
        bytes.extend(entry_line(2, "DISCONNECT a b").as_bytes());
        let err = scan_journal(&bytes).expect_err("garbage rejected");
        match err {
            PersistError::Corrupt { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unterminated_non_advancing_epoch_is_a_torn_tail_not_corruption() {
        // The same torn-write scenario as a half-verb tail: the missing
        // newline means the record never committed, even though what made
        // it to disk happens to parse (with a stale epoch).
        let mut bytes = Vec::new();
        bytes.extend(entry_line(2, "CONNECT a b").as_bytes());
        bytes.extend(b"2 DISCONNECT a b"); // parses, epoch stalls, no newline
        let (entries, valid_len) = scan_journal(&bytes).expect("torn tail tolerated");
        assert_eq!(entries.len(), 1);
        assert_eq!(valid_len, entry_line(2, "CONNECT a b").len());
    }

    #[test]
    fn non_utf8_committed_line_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend(entry_line(1, "CONNECT a b").as_bytes());
        bytes.extend(b"2 CONNECT \xFF\xFE b\n"); // committed, not UTF-8
        let err = scan_journal(&bytes).expect_err("non-UTF-8 rejected");
        assert!(matches!(err, PersistError::Corrupt { line: 2, .. }));
    }

    #[test]
    fn non_utf8_torn_tail_keeps_byte_accurate_offsets() {
        // The invalid bytes must not perturb valid_len: a lossy decode
        // would widen each bad byte to a 3-byte replacement char and make
        // `Journal::open` truncate at the wrong file offset.
        let mut bytes = Vec::new();
        bytes.extend(entry_line(1, "CONNECT a b").as_bytes());
        bytes.extend(b"2 CONN\xFF\xFE"); // torn write straddling a page of garbage
        let (entries, valid_len) = scan_journal(&bytes).expect("torn tail tolerated");
        assert_eq!(entries.len(), 1);
        assert_eq!(valid_len, entry_line(1, "CONNECT a b").len());
    }

    #[test]
    fn manifest_round_trips_and_distinguishes_legacy_dirs() {
        let dir = std::env::temp_dir().join(format!("upsim-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        // No manifest: a legacy single-model layout.
        assert!(read_manifest(&dir).expect("absent is fine").is_none());
        let names = vec!["usi".to_string(), "campus".to_string()];
        write_manifest(&dir, &names).expect("writes");
        assert_eq!(read_manifest(&dir).expect("reads"), Some(names));
        // A malformed header is corruption, not a silent legacy fallback.
        std::fs::write(manifest_path(&dir), "who knows\nusi\n").expect("writes");
        assert!(matches!(
            read_manifest(&dir),
            Err(PersistError::Corrupt { line: 1, .. })
        ));
        // A manifest entry that could escape the root is corruption too.
        std::fs::write(manifest_path(&dir), "upsim-models v1\n../escape\n").expect("writes");
        assert!(matches!(
            read_manifest(&dir),
            Err(PersistError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_monotonic_epochs_are_corruption() {
        let mut bytes = Vec::new();
        bytes.extend(entry_line(2, "CONNECT a b").as_bytes());
        bytes.extend(entry_line(2, "DISCONNECT a b").as_bytes());
        bytes.extend(b"\n");
        let err = scan_journal(&bytes).expect_err("stalled epoch rejected");
        assert!(matches!(err, PersistError::Corrupt { line: 2, .. }));
    }
}
