//! The line-delimited wire protocol.
//!
//! Every request is one line, every response is one line — trivially
//! scriptable with `nc`:
//!
//! ```text
//! QUERY <client> <provider>
//! BATCH <client>:<provider> [<client>:<provider> ...]
//! MC <client> <provider> <samples> [<seed>] [interval]
//! UPDATE CONNECT <a> <b>
//! UPDATE DISCONNECT <a> <b>
//! UPDATE SERVICE <name> <atomic> [<atomic> ...]
//! OBSERVE <component> <up|down> <ts>
//! OBSERVE BATCH <component>:<up|down>:<ts> [...]
//! CAMPAIGN <axis|clause> [...]
//! STATS
//! SAVE
//! USE <model>
//! MODELS
//! SHUTDOWN
//! ```
//!
//! Responses start with `OK ` or `ERR `. Command words are matched
//! case-insensitively; device, service, and model names are
//! case-sensitive.
//!
//! `CAMPAIGN` is the one deliberate exception to one-line responses: a
//! long fan-out streams `PROGRESS campaign <done>/<total>` lines before
//! the final `OK campaign ...` (or `OK campaign-json {...}` when the spec
//! carries the `json` clause), so a caller watching the socket sees the
//! run advance instead of a silent stall.
//!
//! `USE` is the only stateful verb: it selects which registered model the
//! connection's subsequent `QUERY`/`BATCH`/`MC`/`UPDATE`/`SAVE` requests
//! address. A connection that never sends `USE` talks to the default
//! model, which on a single-model server makes every response
//! byte-identical to the pre-registry protocol.

use std::sync::Arc;

use upsim_core::service::CompositeService;

use upsim_campaign::{CampaignReport, CampaignSpec};

use crate::cache::CachedPerspective;
use crate::engine::{EngineError, UpdateCommand, UpdateSummary};
use crate::metrics::{MetricsSnapshot, ModelInfo};
use crate::persist::SaveSummary;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    Query {
        client: String,
        provider: String,
    },
    Batch {
        pairs: Vec<(String, String)>,
    },
    /// Monte-Carlo estimate from the perspective's compiled bit-sliced
    /// program (`seed` defaults to 2013 when omitted). With `interval`,
    /// the response also carries a 95% interval — the confidence interval
    /// for the posterior-mean availability (block-resampled thresholds)
    /// when the perspective has observation-refined parameters, Wilson
    /// sampling interval otherwise.
    MonteCarlo {
        client: String,
        provider: String,
        samples: usize,
        seed: u64,
        interval: bool,
    },
    Update(UpdateCommand),
    /// Run a mass what-if campaign (spec grammar: `upsim_campaign::spec`).
    Campaign(CampaignSpec),
    Stats,
    Save,
    /// Select the registered model this connection addresses from now on.
    Use {
        model: String,
    },
    /// List registered models with epoch and cache residency.
    Models,
    Shutdown,
}

/// Default `MC` seed when the request omits one.
pub const DEFAULT_MC_SEED: u64 = 2013;

/// Parses one request line. Returns a human-readable error for malformed
/// input (rendered as an `ERR` line; the connection stays open).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let command = words.next().ok_or("empty request")?;
    match command.to_ascii_uppercase().as_str() {
        "QUERY" => {
            let client = words.next().ok_or("usage: QUERY <client> <provider>")?;
            let provider = words.next().ok_or("usage: QUERY <client> <provider>")?;
            expect_end(words, "QUERY")?;
            Ok(Request::Query {
                client: client.to_string(),
                provider: provider.to_string(),
            })
        }
        "BATCH" => {
            let mut pairs = Vec::new();
            for word in words {
                let (client, provider) = word
                    .split_once(':')
                    .ok_or_else(|| format!("malformed pair `{word}` (want client:provider)"))?;
                if client.is_empty() || provider.is_empty() {
                    return Err(format!("malformed pair `{word}` (want client:provider)"));
                }
                pairs.push((client.to_string(), provider.to_string()));
            }
            if pairs.is_empty() {
                return Err("usage: BATCH <client>:<provider> [...]".to_string());
            }
            Ok(Request::Batch { pairs })
        }
        "MC" => {
            const USAGE: &str = "usage: MC <client> <provider> <samples> [<seed>] [interval]";
            let client = words.next().ok_or(USAGE)?;
            let provider = words.next().ok_or(USAGE)?;
            let samples: usize = words
                .next()
                .ok_or(USAGE)?
                .parse()
                .map_err(|_| "samples must be a positive integer".to_string())?;
            if samples == 0 {
                return Err("samples must be a positive integer".to_string());
            }
            let mut seed = DEFAULT_MC_SEED;
            let mut interval = false;
            if let Some(word) = words.next() {
                if word.eq_ignore_ascii_case("interval") {
                    interval = true;
                } else {
                    seed = word
                        .parse()
                        .map_err(|_| "seed must be a non-negative integer".to_string())?;
                    if let Some(word) = words.next() {
                        if word.eq_ignore_ascii_case("interval") {
                            interval = true;
                        } else {
                            return Err(format!("unexpected trailing argument `{word}` after MC"));
                        }
                    }
                }
            }
            expect_end(words, "MC")?;
            Ok(Request::MonteCarlo {
                client: client.to_string(),
                provider: provider.to_string(),
                samples,
                seed,
                interval,
            })
        }
        "UPDATE" => parse_update(words).map(Request::Update),
        "OBSERVE" => parse_observe(words).map(Request::Update),
        "CAMPAIGN" => {
            let clauses: Vec<&str> = words.collect();
            if clauses.is_empty() {
                return Err(
                    "usage: CAMPAIGN <kill-each-component|cut-each-link|substitute-each-service\
                     |scale-mtbf:<class>:<f,..>> [pairs:c:p,..] [mc:<samples>[:<seed>]] \
                     [posterior] [top:<n>] [limit:<n>] [json]"
                        .to_string(),
                );
            }
            CampaignSpec::parse_words(&clauses).map(Request::Campaign)
        }
        "STATS" => {
            expect_end(words, "STATS")?;
            Ok(Request::Stats)
        }
        "SAVE" => {
            expect_end(words, "SAVE")?;
            Ok(Request::Save)
        }
        "USE" => {
            let model = words.next().ok_or("usage: USE <model>")?;
            expect_end(words, "USE")?;
            Ok(Request::Use {
                model: model.to_string(),
            })
        }
        "MODELS" => {
            expect_end(words, "MODELS")?;
            Ok(Request::Models)
        }
        "SHUTDOWN" => {
            expect_end(words, "SHUTDOWN")?;
            Ok(Request::Shutdown)
        }
        other => Err(format!(
            "unknown command `{other}` (try QUERY, BATCH, MC, UPDATE, OBSERVE, CAMPAIGN, STATS, \
             SAVE, USE, MODELS, SHUTDOWN)"
        )),
    }
}

fn parse_update<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<UpdateCommand, String> {
    let kind = words
        .next()
        .ok_or("usage: UPDATE CONNECT|DISCONNECT|SERVICE ...")?;
    match kind.to_ascii_uppercase().as_str() {
        "CONNECT" => {
            let a = words.next().ok_or("usage: UPDATE CONNECT <a> <b>")?;
            let b = words.next().ok_or("usage: UPDATE CONNECT <a> <b>")?;
            expect_end(words, "UPDATE CONNECT")?;
            Ok(UpdateCommand::Connect {
                a: a.to_string(),
                b: b.to_string(),
            })
        }
        "DISCONNECT" => {
            let a = words.next().ok_or("usage: UPDATE DISCONNECT <a> <b>")?;
            let b = words.next().ok_or("usage: UPDATE DISCONNECT <a> <b>")?;
            expect_end(words, "UPDATE DISCONNECT")?;
            Ok(UpdateCommand::Disconnect {
                a: a.to_string(),
                b: b.to_string(),
            })
        }
        "SERVICE" => {
            let name = words
                .next()
                .ok_or("usage: UPDATE SERVICE <name> <atomic> [...]")?;
            let atomics: Vec<&str> = words.collect();
            if atomics.is_empty() {
                return Err("usage: UPDATE SERVICE <name> <atomic> [...]".to_string());
            }
            let service = CompositeService::sequential(name, &atomics)
                .map_err(|e| format!("invalid service: {e}"))?;
            Ok(UpdateCommand::SubstituteService { service })
        }
        // Journal replay: `OBSERVE` lines share the bare update syntax, so
        // restore walks one parser for the whole journal.
        "OBSERVE" => parse_observe(words),
        other => Err(format!(
            "unknown update `{other}` (try CONNECT, DISCONNECT, SERVICE, OBSERVE)"
        )),
    }
}

/// Parses the words after the `OBSERVE` verb: either one transition
/// (`<component> <up|down> <ts>`) or an atomic batch
/// (`BATCH <component>:<up|down>:<ts> [...]`). The batch keyword is
/// matched case-insensitively, so a component literally named `BATCH`
/// must be observed through the batched form.
fn parse_observe<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<UpdateCommand, String> {
    const USAGE: &str =
        "usage: OBSERVE <component> <up|down> <ts> | OBSERVE BATCH <component>:<up|down>:<ts> [...]";
    let first = words.next().ok_or(USAGE)?;
    if first.eq_ignore_ascii_case("BATCH") {
        let mut events = Vec::new();
        for word in words {
            let mut parts = word.splitn(3, ':');
            let component = parts
                .next()
                .filter(|c| !c.is_empty())
                .ok_or_else(|| format!("malformed event `{word}` (want component:up|down:ts)"))?;
            let state = parts
                .next()
                .ok_or_else(|| format!("malformed event `{word}` (want component:up|down:ts)"))?;
            let ts = parts
                .next()
                .ok_or_else(|| format!("malformed event `{word}` (want component:up|down:ts)"))?;
            events.push((
                component.to_string(),
                parse_up_down(state)?,
                parse_observe_ts(ts)?,
            ));
        }
        if events.is_empty() {
            return Err(USAGE.to_string());
        }
        Ok(UpdateCommand::ObserveBatch { events })
    } else {
        let state = words.next().ok_or(USAGE)?;
        let up = parse_up_down(state)?;
        let ts = parse_observe_ts(words.next().ok_or(USAGE)?)?;
        expect_end(words, "OBSERVE")?;
        Ok(UpdateCommand::Observe {
            component: first.to_string(),
            up,
            ts,
        })
    }
}

fn parse_up_down(state: &str) -> Result<bool, String> {
    match state.to_ascii_lowercase().as_str() {
        "up" => Ok(true),
        "down" => Ok(false),
        other => Err(format!("transition must be `up` or `down`, got `{other}`")),
    }
}

fn parse_observe_ts(word: &str) -> Result<u64, String> {
    word.parse()
        .map_err(|_| format!("timestamp must be integer seconds, got `{word}`"))
}

/// Parses a bare update command (no `UPDATE` prefix) — the journal's
/// on-disk line syntax, shared with the wire verb.
pub fn parse_update_wire(line: &str) -> Result<UpdateCommand, String> {
    parse_update(line.split_whitespace())
}

/// Renders an update command back into the bare wire syntax
/// [`parse_update_wire`] accepts. A substituted service is flattened to
/// its atomic sequence (see the caveat in [`crate::persist`]).
pub fn render_update_wire(command: &UpdateCommand) -> String {
    match command {
        UpdateCommand::Connect { a, b } => format!("CONNECT {a} {b}"),
        UpdateCommand::Disconnect { a, b } => format!("DISCONNECT {a} {b}"),
        UpdateCommand::SubstituteService { service } => {
            let mut line = format!("SERVICE {}", service.name());
            for atomic in service.atomic_services() {
                line.push(' ');
                line.push_str(atomic);
            }
            line
        }
        UpdateCommand::Observe { component, up, ts } => {
            format!(
                "OBSERVE {component} {} {ts}",
                if *up { "up" } else { "down" }
            )
        }
        UpdateCommand::ObserveBatch { events } => {
            let mut line = String::from("OBSERVE BATCH");
            for (component, up, ts) in events {
                line.push_str(&format!(
                    " {component}:{}:{ts}",
                    if *up { "up" } else { "down" }
                ));
            }
            line
        }
    }
}

fn expect_end<'a>(mut words: impl Iterator<Item = &'a str>, command: &str) -> Result<(), String> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err(format!(
            "unexpected trailing argument `{extra}` after {command}"
        )),
    }
}

/// `OK query ...` — one perspective result. Perspectives priced entirely
/// from authored parameters render byte-identically to the pre-parameter
/// -layer protocol; the `observed=`/`ci95=` tokens appear only once at
/// least one component's MTBF/MTTR has been observation-refined.
pub fn render_perspective(entry: &CachedPerspective, source: &str) -> String {
    let paths: usize = entry.path_counts.iter().map(|(_, n)| n).sum();
    let mut line = format!(
        "OK query client={} provider={} service={} availability={:.9} upsim={} paths={} \
         pairs={} ratio={:.4} source={} epoch={} micros={}",
        entry.key.client,
        entry.key.provider,
        entry.key.service,
        entry.availability,
        entry.upsim_nodes.len(),
        paths,
        entry.path_counts.len(),
        entry.reduction_ratio,
        source,
        entry.epoch,
        entry.eval_micros,
    );
    if entry.observed > 0 {
        line.push_str(&format!(" observed={}", entry.observed));
        if let Some((lo, hi)) = entry.availability_ci {
            line.push_str(&format!(" ci95={lo:.9}..{hi:.9}"));
        }
    }
    line
}

/// `OK batch ...` — aggregate line for a batch (first error wins).
pub fn render_batch(results: &[Result<Arc<CachedPerspective>, EngineError>]) -> String {
    if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
        return render_error(err);
    }
    let mut line = format!("OK batch n={}", results.len());
    for result in results {
        let entry = result.as_ref().expect("errors handled above");
        line.push_str(&format!(
            " {}:{}={:.9}",
            entry.key.client, entry.key.provider, entry.availability
        ));
    }
    line
}

/// `OK mc ...` — a Monte-Carlo estimate next to the exact availability of
/// the entry it ran against. `interval` is the requested 95% interval
/// (`MC ... interval` only): the confidence interval for the
/// posterior-mean availability when the perspective has
/// observation-refined parameters, Wilson otherwise — the `sampling=`
/// token says which one the kernel ran.
pub fn render_mc(
    entry: &CachedPerspective,
    result: &dependability::montecarlo::MonteCarloResult,
    interval: Option<(f64, f64)>,
    source: &str,
) -> String {
    let (lo, hi) = result.confidence_95();
    let mut line = format!(
        "OK mc client={} provider={} service={} estimate={:.9} ci95={:.9}..{:.9} samples={} \
         exact={:.9} source={} epoch={}",
        entry.key.client,
        entry.key.provider,
        entry.key.service,
        result.estimate,
        lo,
        hi,
        result.samples,
        entry.availability,
        source,
        entry.epoch,
    );
    if let Some((ilo, ihi)) = interval {
        line.push_str(&format!(
            " interval95={ilo:.9}..{ihi:.9} sampling={}",
            if entry.observed > 0 {
                "posterior"
            } else {
                "point"
            }
        ));
    }
    line
}

/// `OK update ...`
pub fn render_update(summary: &UpdateSummary) -> String {
    format!(
        "OK update kind={} epoch={} invalidated={}",
        summary.kind, summary.epoch, summary.invalidated
    )
}

/// `PROGRESS campaign <done>/<total>` — streamed while a campaign runs.
pub fn render_campaign_progress(done: usize, total: usize) -> String {
    format!("PROGRESS campaign {done}/{total}")
}

/// The final campaign line: `OK campaign <summary>` normally, or
/// `OK campaign-json {...}` when the spec asked for `json`. Both are one
/// line; the JSON form is the full deterministic report.
pub fn render_campaign(report: &CampaignReport, json: bool) -> String {
    if json {
        format!("OK campaign-json {}", report.render_json())
    } else {
        format!("OK campaign {}", report.summary_line())
    }
}

/// `OK stats ...`
pub fn render_stats(snapshot: &MetricsSnapshot) -> String {
    format!("OK stats {}", snapshot.render())
}

/// `OK save ...`
pub fn render_save(summary: &SaveSummary) -> String {
    format!(
        "OK save epoch={} path={}",
        summary.epoch,
        summary.path.display()
    )
}

/// `OK use ...` — acknowledges a model selection with its current epoch.
pub fn render_use(model: &str, epoch: u64) -> String {
    format!("OK use model={model} epoch={epoch}")
}

/// `OK models ...` — registered models with epoch and cache residency.
/// The `observed=` token (observation-refined component count) appears
/// only for shards that have absorbed `OBSERVE` events, keeping the line
/// byte-identical for authored-only servers.
pub fn render_models(models: &[ModelInfo]) -> String {
    let mut line = format!("OK models n={}", models.len());
    for ModelInfo { name, stats } in models {
        line.push_str(&format!(
            " {name}:epoch={}:cache={}/{}",
            stats.epoch, stats.cache_len, stats.cache_capacity
        ));
        if stats.observed_components > 0 {
            line.push_str(&format!(":observed={}", stats.observed_components));
        }
    }
    line
}

/// `ERR ...`
pub fn render_error(err: &EngineError) -> String {
    format!("ERR {err}")
}

// ---------------------------------------------------------------------------
// Binary BATCH frames
//
// Next to the text protocol, a client may send a length-prefixed binary
// batch — the high-throughput path for monitoring fleets that poll
// thousands of perspectives. Framing (all integers little-endian):
//
// ```text
// frame    = 0x01 , u32 payload_len , payload
// request  = u32 npairs , npairs × ( u16 len , client-utf8 ,
//                                    u16 len , provider-utf8 )
// response = u8 status ,
//            status 0: u32 n , n × f64 availability   (input order)
//            status 1: u32 msg_len , msg-utf8         (first error wins)
// ```
//
// `0x01` can never start a text command (all verbs are ASCII), so the
// server distinguishes the two framings by the first byte and a client
// may interleave text lines and binary frames on one connection —
// responses still come back in receive order. Error semantics mirror
// `render_batch`: one failing pair fails the whole frame with the first
// error's message.
// ---------------------------------------------------------------------------

/// First byte of a binary frame; see the framing note above.
pub const FRAME_MARKER: u8 = 0x01;

/// Encodes a binary `BATCH` request frame (marker + length + payload) —
/// the client-side half, which the tests send (the CLI's `--pipeline`
/// mode sends text `QUERY` lines).
pub fn encode_batch_frame(pairs: &[(String, String)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + pairs.len() * 16);
    payload.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (client, provider) in pairs {
        for name in [client, provider] {
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
    }
    frame_with_header(payload)
}

/// Parses a binary `BATCH` request payload (the bytes after the marker
/// and length prefix). Errors are human-readable and rendered as a fatal
/// `ERR bad frame: ...` — a malformed frame desynchronizes the framing,
/// so the server closes the connection afterwards.
pub fn parse_batch_frame(payload: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut cursor = Cursor { buf: payload };
    let npairs = cursor.u32()? as usize;
    if npairs == 0 {
        return Err("batch frame needs at least one pair".into());
    }
    // 4 bytes of length prefixes per pair is the floor; reject counts the
    // payload cannot possibly hold before allocating for them.
    if npairs > payload.len() / 4 {
        return Err(format!("pair count {npairs} exceeds payload size"));
    }
    let mut pairs = Vec::with_capacity(npairs);
    for _ in 0..npairs {
        let client = cursor.string()?;
        let provider = cursor.string()?;
        pairs.push((client, provider));
    }
    if !cursor.buf.is_empty() {
        return Err(format!(
            "{} trailing bytes after last pair",
            cursor.buf.len()
        ));
    }
    Ok(pairs)
}

/// Encodes a binary `BATCH` response frame. Mirrors [`render_batch`]:
/// all-success carries the availabilities in input order; any failure
/// collapses the frame to the first error's message.
pub fn encode_batch_response_frame(
    results: &[Result<Arc<CachedPerspective>, EngineError>],
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + results.len() * 8);
    if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
        let msg = err.to_string();
        payload.push(1u8);
        payload.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        payload.extend_from_slice(msg.as_bytes());
    } else {
        payload.push(0u8);
        payload.extend_from_slice(&(results.len() as u32).to_le_bytes());
        for result in results {
            let entry = result.as_ref().expect("errors handled above");
            payload.extend_from_slice(&entry.availability.to_le_bytes());
        }
    }
    frame_with_header(payload)
}

/// Decodes a binary `BATCH` response payload into `Ok(availabilities)` or
/// `Err(server error message)` — the client-side half. The outer `Result`
/// reports malformed framing.
#[allow(clippy::type_complexity)]
pub fn parse_batch_response_frame(payload: &[u8]) -> Result<Result<Vec<f64>, String>, String> {
    let mut cursor = Cursor { buf: payload };
    match cursor.u8()? {
        0 => {
            let n = cursor.u32()? as usize;
            if n > cursor.buf.len() / 8 {
                return Err(format!("result count {n} exceeds payload size"));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f64::from_le_bytes(cursor.take(8)?.try_into().unwrap()));
            }
            Ok(Ok(values))
        }
        1 => {
            let len = cursor.u32()? as usize;
            let msg = std::str::from_utf8(cursor.take(len)?)
                .map_err(|_| "error message is not utf-8".to_string())?;
            Ok(Err(msg.to_string()))
        }
        other => Err(format!("unknown response status {other}")),
    }
}

/// Reads one whole binary frame (marker + length + payload) from a
/// blocking stream and returns the payload — the client-side read loop.
pub fn read_frame(reader: &mut impl std::io::Read, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 5];
    reader.read_exact(&mut header)?;
    if header[0] != FRAME_MARKER {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected frame marker 0x01, got 0x{:02x}", header[0]),
        ));
    }
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

fn frame_with_header(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(FRAME_MARKER);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() < n {
            return Err(format!(
                "truncated frame: needed {n} bytes, {} left",
                self.buf.len()
            ));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "name is not utf-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PerspectiveKey;

    #[test]
    fn parses_query_case_insensitively() {
        let req = parse_request("query t1 p1").expect("parses");
        match req {
            Request::Query { client, provider } => {
                assert_eq!(client, "t1");
                assert_eq!(provider, "p1");
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_batch_pairs() {
        let req = parse_request("BATCH t1:p1 t2:p3").expect("parses");
        match req {
            Request::Batch { pairs } => {
                assert_eq!(
                    pairs,
                    vec![
                        ("t1".to_string(), "p1".to_string()),
                        ("t2".to_string(), "p3".to_string())
                    ]
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_update_variants() {
        assert!(matches!(
            parse_request("UPDATE CONNECT a b"),
            Ok(Request::Update(UpdateCommand::Connect { .. }))
        ));
        assert!(matches!(
            parse_request("update disconnect a b"),
            Ok(Request::Update(UpdateCommand::Disconnect { .. }))
        ));
        match parse_request("UPDATE SERVICE scanS a1 a2") {
            Ok(Request::Update(UpdateCommand::SubstituteService { service })) => {
                assert_eq!(service.name(), "scanS");
                assert_eq!(service.atomic_services().len(), 2);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_save_and_wire_updates() {
        assert!(matches!(parse_request("SAVE"), Ok(Request::Save)));
        assert!(matches!(parse_request("save"), Ok(Request::Save)));
        assert!(parse_request("SAVE now").is_err());

        let command = parse_update_wire("CONNECT a b").expect("parses");
        assert_eq!(render_update_wire(&command), "CONNECT a b");
        let command = parse_update_wire("SERVICE scanS s1 s2").expect("parses");
        assert_eq!(render_update_wire(&command), "SERVICE scanS s1 s2");
        assert!(parse_update_wire("TELEPORT a b").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("QUERY t1").is_err());
        assert!(parse_request("QUERY t1 p1 extra").is_err());
        assert!(parse_request("BATCH").is_err());
        assert!(parse_request("BATCH t1p1").is_err());
        assert!(parse_request("BATCH :p1").is_err());
        assert!(parse_request("UPDATE TELEPORT a b").is_err());
        assert!(parse_request("FROBNICATE").is_err());
    }

    #[test]
    fn renders_single_line_responses() {
        let entry = CachedPerspective {
            key: PerspectiveKey::new("t1", "p1", "printS"),
            epoch: 2,
            availability: 0.987654321,
            upsim_nodes: ["t1", "sw", "p1"].into_iter().collect(),
            path_counts: vec![("print".into(), 4)],
            reduction_ratio: 0.25,
            eval_micros: 1234,
            mc_program: Arc::new(dependability::McProgram::compile(
                &[0.9],
                [vec![vec![0usize]]].iter().map(|s| s.as_slice()),
            )),
            observed: 0,
            availability_ci: None,
            posterior: Vec::new(),
        };
        let line = render_perspective(&entry, "miss");
        assert!(line.starts_with("OK query "));
        assert!(line.contains("availability=0.987654321"));
        assert!(line.contains("source=miss"));
        // Authored-only perspectives stay byte-identical: no parameter-layer
        // tokens until a component is observation-refined.
        assert!(!line.contains("observed="));
        assert!(!line.contains('\n'));

        let mc = entry.mc_program.run(10_000, 1, 7);
        let mc_line = render_mc(&entry, &mc, None, "hit");
        assert!(mc_line.starts_with("OK mc "));
        assert!(mc_line.contains("samples=10000"));
        assert!(mc_line.contains("exact=0.987654321"));
        assert!(mc_line.contains("source=hit"));
        assert!(mc_line.contains("ci95="));
        assert!(!mc_line.contains("interval95="));
        assert!(!mc_line.contains('\n'));

        // `MC ... interval` appends the requested interval and names the
        // sampling mode (point here: nothing observed).
        let with_interval = render_mc(&entry, &mc, Some((0.9, 0.99)), "hit");
        assert!(with_interval.contains("interval95=0.900000000..0.990000000"));
        assert!(with_interval.contains("sampling=point"));

        // An observation-refined perspective grows the provenance tokens.
        let mut refined = entry.clone();
        refined.observed = 2;
        refined.availability_ci = Some((0.981234567, 0.991234567));
        let refined_line = render_perspective(&refined, "miss");
        assert!(refined_line.contains(" observed=2"));
        assert!(refined_line.contains(" ci95=0.981234567..0.991234567"));
        let refined_mc = render_mc(&refined, &mc, Some((0.9, 0.99)), "hit");
        assert!(refined_mc.contains("sampling=posterior"));

        let batch = render_batch(&[Ok(Arc::new(entry))]);
        assert!(batch.starts_with("OK batch n=1 "));
        assert!(batch.contains("t1:p1=0.987654321"));

        let err = render_batch(&[Err(EngineError::UnknownDevice("ghost".into()))]);
        assert!(err.starts_with("ERR "));
    }

    #[test]
    fn parses_use_and_models() {
        match parse_request("use campus").expect("parses") {
            Request::Use { model } => assert_eq!(model, "campus"),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(parse_request("MODELS"), Ok(Request::Models)));
        assert!(matches!(parse_request("models"), Ok(Request::Models)));
        assert!(parse_request("USE").is_err());
        assert!(parse_request("USE a b").is_err());
        assert!(parse_request("MODELS please").is_err());
        // The unknown-command hint advertises the registry verbs.
        let hint = parse_request("FROBNICATE").expect_err("unknown command");
        assert!(hint.contains("USE"), "hint must mention USE: {hint}");
        assert!(hint.contains("MODELS"), "hint must mention MODELS: {hint}");
    }

    #[test]
    fn renders_use_models_and_the_distinct_unknown_model_error() {
        assert_eq!(render_use("campus", 4), "OK use model=campus epoch=4");
        let model = |name: &str, epoch, cache_len, observed_components| ModelInfo {
            name: name.into(),
            stats: MetricsSnapshot {
                epoch,
                cache_len,
                cache_capacity: 4096,
                observed_components,
                ..MetricsSnapshot::default()
            },
        };
        let line = render_models(&[model("default", 2, 3, 0), model("campus", 0, 0, 0)]);
        assert_eq!(
            line,
            "OK models n=2 default:epoch=2:cache=3/4096 campus:epoch=0:cache=0/4096"
        );
        // A shard that absorbed observations advertises its refined count.
        let line = render_models(&[model("default", 5, 1, 3)]);
        assert_eq!(
            line,
            "OK models n=1 default:epoch=5:cache=1/4096:observed=3"
        );
        // `USE ghost` surfaces as its own error shape, not a parse error.
        let err = render_error(&EngineError::UnknownModel("ghost".into()));
        assert_eq!(err, "ERR unknown model `ghost` (try MODELS)");
    }

    #[test]
    fn parses_campaign_requests_and_advertises_the_verb() {
        match parse_request("CAMPAIGN kill-each-component pairs:t1:p2 mc:4096:7 json")
            .expect("parses")
        {
            Request::Campaign(spec) => {
                assert_eq!(spec.axes.len(), 1);
                assert_eq!(spec.pairs, vec![("t1".to_string(), "p2".to_string())]);
                assert!(spec.json);
                assert_eq!(spec.mc.expect("mc clause").seed, 7);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // Lower-case verb, same grammar.
        assert!(matches!(
            parse_request("campaign cut-each-link"),
            Ok(Request::Campaign(_))
        ));
        // Empty and malformed specs are parse errors, not panics.
        assert!(parse_request("CAMPAIGN").is_err());
        assert!(parse_request("CAMPAIGN frobnicate-everything").is_err());
        // The unknown-command hint advertises CAMPAIGN.
        let hint = parse_request("FROBNICATE").expect_err("unknown command");
        assert!(
            hint.contains("CAMPAIGN"),
            "hint must mention CAMPAIGN: {hint}"
        );
    }

    #[test]
    fn renders_campaign_progress_and_final_lines() {
        assert_eq!(render_campaign_progress(3, 34), "PROGRESS campaign 3/34");
        let report = CampaignReport {
            spec: "kill-each-component".to_string(),
            scenarios: 2,
            perspectives: 1,
            affected_evaluations: 2,
            baseline_mean: 0.99,
            baseline_worst_client: "t1".to_string(),
            baseline_worst_provider: "p1".to_string(),
            baseline_worst: 0.99,
            baseline_interval: None,
            rows: Vec::new(),
            spofs: Vec::new(),
            worst_users: Vec::new(),
            top: 10,
        };
        let line = render_campaign(&report, false);
        assert!(line.starts_with("OK campaign scenarios=2 "), "{line}");
        assert!(!line.contains('\n'));
        let json = render_campaign(&report, true);
        assert!(json.starts_with("OK campaign-json {"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn parses_mc_requests() {
        match parse_request("MC t1 p1 200000 42").expect("parses") {
            Request::MonteCarlo {
                client,
                provider,
                samples,
                seed,
                interval,
            } => {
                assert_eq!(client, "t1");
                assert_eq!(provider, "p1");
                assert_eq!(samples, 200_000);
                assert_eq!(seed, 42);
                assert!(!interval);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // The seed is optional and defaults to the documented constant.
        match parse_request("mc t1 p1 1000").expect("parses") {
            Request::MonteCarlo { seed, interval, .. } => {
                assert_eq!(seed, DEFAULT_MC_SEED);
                assert!(!interval);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // `interval` composes with and without an explicit seed.
        match parse_request("MC t1 p1 1000 interval").expect("parses") {
            Request::MonteCarlo { seed, interval, .. } => {
                assert_eq!(seed, DEFAULT_MC_SEED);
                assert!(interval);
            }
            other => panic!("wrong request: {other:?}"),
        }
        match parse_request("MC t1 p1 1000 7 INTERVAL").expect("parses") {
            Request::MonteCarlo { seed, interval, .. } => {
                assert_eq!(seed, 7);
                assert!(interval);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(parse_request("MC t1 p1").is_err());
        assert!(parse_request("MC t1 p1 0").is_err());
        assert!(parse_request("MC t1 p1 many").is_err());
        assert!(parse_request("MC t1 p1 100 7 extra").is_err());
        assert!(parse_request("MC t1 p1 100 7 interval extra").is_err());
    }

    #[test]
    fn parses_observe_requests_and_round_trips_the_journal_syntax() {
        match parse_request("OBSERVE sw1 down 1000").expect("parses") {
            Request::Update(UpdateCommand::Observe { component, up, ts }) => {
                assert_eq!(component, "sw1");
                assert!(!up);
                assert_eq!(ts, 1000);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // Case-insensitive verb and state, like every other command word.
        assert!(matches!(
            parse_request("observe sw1 UP 1001"),
            Ok(Request::Update(UpdateCommand::Observe { up: true, .. }))
        ));
        match parse_request("OBSERVE BATCH sw1:down:10 sw1:up:40 p1:down:12").expect("parses") {
            Request::Update(UpdateCommand::ObserveBatch { events }) => {
                assert_eq!(
                    events,
                    vec![
                        ("sw1".to_string(), false, 10),
                        ("sw1".to_string(), true, 40),
                        ("p1".to_string(), false, 12),
                    ]
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
        // Malformed observations are parse errors, not panics.
        assert!(parse_request("OBSERVE").is_err());
        assert!(parse_request("OBSERVE sw1").is_err());
        assert!(parse_request("OBSERVE sw1 sideways 10").is_err());
        assert!(parse_request("OBSERVE sw1 up notanumber").is_err());
        assert!(parse_request("OBSERVE sw1 up 10 extra").is_err());
        assert!(parse_request("OBSERVE BATCH").is_err());
        assert!(parse_request("OBSERVE BATCH sw1down10").is_err());
        assert!(parse_request("OBSERVE BATCH :down:10").is_err());

        // The journal stores observations in the bare update syntax; both
        // forms must round-trip exactly for restore to replay them.
        let single = parse_update_wire("OBSERVE sw1 down 1000").expect("parses");
        assert_eq!(render_update_wire(&single), "OBSERVE sw1 down 1000");
        let batch = parse_update_wire("OBSERVE BATCH sw1:down:10 sw1:up:40").expect("parses");
        assert_eq!(
            render_update_wire(&batch),
            "OBSERVE BATCH sw1:down:10 sw1:up:40"
        );

        // The unknown-command hint advertises the new verb.
        let hint = parse_request("FROBNICATE").expect_err("unknown command");
        assert!(
            hint.contains("OBSERVE"),
            "hint must mention OBSERVE: {hint}"
        );
    }
}
