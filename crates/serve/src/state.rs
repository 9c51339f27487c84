//! Server state: named KBs pre-loaded at startup, the shared cache
//! registry, and the observability handle every request records into.
//!
//! Each `--kb` flag becomes a [`KbEntry`]: the knowledge base is built (or
//! generated) into an [`Arc`]-owned [`KbCore`] — the KB itself, its rule
//! set, and the shared match-index memo — behind a swap lock. Requests
//! clone the `Arc` and build a short-lived [`MatchContext`] over it, so a
//! `POST /v1/kbs/{kb}/delta` can install a *new* core (next KB generation,
//! fresh index memo) without touching in-flight repairs, and
//! `DELETE /v1/kbs/{kb}` releases the KB's memory once the last in-flight
//! handle drops. The entry's value cache is created through the shared
//! [`CacheRegistry`] so a `--cache-dir` snapshot warm-loads at boot rather
//! than on the first request.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dr_core::{CacheRegistry, IndexMemo, MatchContext, RegistryConfig, RepairBudget};
use dr_datasets::{KbProfile, NobelWorld, UisWorld};
use dr_kb::graph::KnowledgeBase;
use dr_kb::{KbDelta, KbRef, MappedKb};
use dr_obs::{parse_traceparent, ActiveTrace, Obs, Span, SpanCtx, TailPolicy, TraceId, TraceStore};
use dr_relation::Schema;
use parking_lot::RwLock;

use crate::admission::{AdmissionConfig, AdmissionGate};
use crate::http::Request;

/// A served KB, owned by `Arc` so a delta can swap in a successor
/// generation and an unload can release memory once the last in-flight
/// request drops its handle.
pub enum OwnedKb {
    /// An in-memory, builder-finalized KB (`--kb`). Deltas apply here.
    Mem(Arc<KnowledgeBase>),
    /// A memory-mapped `.drkb` image (`--kb-image`). Immutable: a delta
    /// against it is refused with `409`.
    Mapped(Arc<MappedKb>),
}

impl OwnedKb {
    /// A borrowed view for query/context construction.
    pub fn as_ref(&self) -> KbRef<'_> {
        match self {
            OwnedKb::Mem(kb) => KbRef::Mem(kb),
            OwnedKb::Mapped(kb) => KbRef::Mapped(kb),
        }
    }
}

/// One generation of a served KB: the graph, the rules compiled against
/// its id space, and the `(type, sim)` match-index memo shared by every
/// request context built over this generation.
pub struct KbCore {
    /// The knowledge base.
    pub kb: OwnedKb,
    /// Detective rules. Shared (not regenerated) across deltas: id
    /// interning is append-only, so `ClassId`/`PredId` stay valid in the
    /// successor generation.
    pub rules: Arc<Vec<dr_core::DetectiveRule>>,
    /// Match indexes of this generation. A delta installs a fresh memo,
    /// filled from the registry: indexes the delta's footprint leaves
    /// untouched are the predecessor's (shared, not rebuilt), the rest are
    /// rebuilt over the new KB. `generation_inheritance` tests that an
    /// inherited index answers exactly as a rebuilt one.
    pub memo: IndexMemo,
}

impl KbCore {
    /// Builds a request context over this core: shared indexes via the
    /// memo, value caches via the registry.
    pub fn context(&self, registry: Arc<CacheRegistry>, obs: Arc<Obs>) -> MatchContext<'_> {
        MatchContext::with_memo(self.kb.as_ref(), &self.memo, Some(registry)).with_obs(obs)
    }
}

/// The result of a successfully applied KB delta.
#[derive(Debug, Clone, Copy)]
pub struct DeltaOutcome {
    /// The KB generation after the delta.
    pub generation: u64,
    /// Cache entries swept because their footprint intersected the delta.
    pub invalidated: u64,
}

/// Why a delta could not be applied.
#[derive(Debug)]
pub enum DeltaApplyError {
    /// The KB was unloaded (`DELETE /v1/kbs/{name}`).
    Unloaded,
    /// The KB is an immutable mmap image.
    Immutable,
    /// The delta itself was rejected (e.g. it would create a taxonomy
    /// cycle); the KB is untouched.
    Rejected(String),
}

/// One served knowledge base with everything a request needs.
pub struct KbEntry {
    /// Route name (`/v1/repair/{name}`).
    pub name: String,
    /// The canonical schema requests must match (attribute names, in
    /// order). The schema name also keys the cache fingerprint, so posted
    /// relations are re-homed onto this schema before repair.
    pub schema: Arc<Schema>,
    /// The current core, `None` once unloaded. Swapped whole on delta.
    core: RwLock<Option<Arc<KbCore>>>,
}

impl KbEntry {
    /// The current core, or `None` if the KB was unloaded.
    pub fn core(&self) -> Option<Arc<KbCore>> {
        self.core.read().clone()
    }

    /// Unloads the KB: takes the core out so new requests 404. Memory is
    /// released when the last in-flight `Arc<KbCore>` drops. Returns the
    /// removed core, or `None` if already unloaded.
    pub fn unload(&self) -> Option<Arc<KbCore>> {
        self.core.write().take()
    }

    /// Applies `delta` by cloning the current KB, mutating the clone, and
    /// swapping in a successor core (new generation, fresh index memo).
    ///
    /// The registry is told about the generation step so surviving value
    /// cache entries and match indexes are re-keyed to the new generation
    /// and those whose recorded footprint intersects the delta's are
    /// swept. In-flight requests keep repairing against the old core's
    /// `Arc`; the migrated value cache no longer answers for their
    /// generation, so they compute directly until they and the old core
    /// retire together.
    pub fn apply_delta(
        &self,
        delta: &KbDelta,
        registry: &Arc<CacheRegistry>,
    ) -> Result<DeltaOutcome, DeltaApplyError> {
        let mut guard = self.core.write();
        let Some(core) = guard.as_ref() else {
            return Err(DeltaApplyError::Unloaded);
        };
        let OwnedKb::Mem(old_kb) = &core.kb else {
            return Err(DeltaApplyError::Immutable);
        };
        let old_generation = old_kb.generation();
        let mut new_kb = (**old_kb).clone();
        let fp = new_kb
            .apply_delta(delta)
            .map_err(|e| DeltaApplyError::Rejected(e.to_string()))?;
        let generation = new_kb.generation();
        let invalidated =
            registry.apply_delta(old_generation, generation, new_kb.content_hash(), &fp);
        let new_core = Arc::new(KbCore {
            kb: OwnedKb::Mem(Arc::new(new_kb)),
            rules: Arc::clone(&core.rules),
            memo: IndexMemo::new(),
        });
        // Prewarm the successor's memo before publishing it, so the first
        // post-delta request pays no index-build stall. The registry hands
        // over every index the delta left untouched; only the rest build.
        MatchContext::with_memo(
            new_core.kb.as_ref(),
            &new_core.memo,
            Some(Arc::clone(registry)),
        )
        .prewarm(&new_core.rules);
        *guard = Some(Arc::clone(&new_core));
        Ok(DeltaOutcome {
            generation,
            invalidated,
        })
    }
}

/// Server-wide tunables, fixed at startup.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per repair request (0 = scheduler default).
    pub repair_threads: usize,
    /// Default per-tuple deadline when a request does not pass
    /// `deadline_ms` (None = unbounded).
    pub default_deadline: Option<Duration>,
    /// Default per-tuple step cap (0 = unbounded).
    pub default_max_steps: u64,
    /// Admission-control limits for the repair route.
    pub admission: AdmissionConfig,
    /// Requests served on one keep-alive connection before the server
    /// forces a close (0 = unlimited).
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may idle between requests.
    pub idle_timeout: Duration,
    /// How long the first request on a connection may take to arrive in
    /// full (request line + headers + body); a half-sent request past
    /// this gets `408`.
    pub header_timeout: Duration,
    /// Whether repair requests capture live span trees at all. Off means
    /// `?trace=1` is ignored and `/v1/traces` stays empty.
    pub trace_capture: bool,
    /// Tail-sampling latency threshold: captured traces at least this
    /// slow are retained (`None` disables the latency rule).
    pub trace_slow: Option<Duration>,
    /// Whether traces of requests with failed or degraded rows are
    /// retained.
    pub trace_errors: bool,
    /// Per-trace recorded-span cap (DESIGN.md §11 bounding satellite).
    pub trace_max_spans: usize,
    /// Retained traces kept in the `/v1/traces` ring.
    pub trace_store_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            repair_threads: 0,
            default_deadline: None,
            default_max_steps: 0,
            admission: AdmissionConfig::default(),
            max_requests_per_conn: 1000,
            idle_timeout: Duration::from_secs(5),
            header_timeout: crate::http::IO_TIMEOUT,
            trace_capture: true,
            trace_slow: Some(Duration::from_millis(500)),
            trace_errors: true,
            trace_max_spans: dr_obs::DEFAULT_MAX_SPANS,
            trace_store_capacity: 64,
        }
    }
}

/// Where the server is in its life: serving, or draining toward exit.
///
/// `/readyz` reads [`is_draining`](Self::is_draining); the connection
/// loop counts every in-flight request through [`track`](Self::track) so
/// a drain can wait for the count to hit zero before flushing snapshots
/// and exiting (DESIGN.md §9).
#[derive(Debug, Default)]
pub struct Lifecycle {
    draining: AtomicBool,
    active: AtomicUsize,
}

impl Lifecycle {
    /// Flips the server to draining: `/readyz` goes 503, keep-alive
    /// connections close after their current response. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Registers an in-flight request; the guard deregisters on drop
    /// (including on panic, so a wedged handler cannot pin the count).
    pub fn track(&self) -> ActiveGuard<'_> {
        self.active.fetch_add(1, Ordering::AcqRel);
        ActiveGuard { lifecycle: self }
    }

    /// Requests currently in flight.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }
}

/// RAII handle for one in-flight request (see [`Lifecycle::track`]).
pub struct ActiveGuard<'a> {
    lifecycle: &'a Lifecycle,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.lifecycle.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Everything shared across connections, behind one `Arc`.
pub struct ServerState {
    /// Served KBs, in `--kb` flag order.
    pub entries: Vec<KbEntry>,
    /// Value-cache registry shared by every entry and request.
    pub registry: Arc<CacheRegistry>,
    /// The metric registry; `/metrics` renders its live snapshot.
    pub obs: Arc<Obs>,
    /// Server start time, for `/healthz` uptime.
    pub started: Instant,
    /// Startup tunables.
    pub config: ServeConfig,
    /// Admission gate for the repair route (DESIGN.md §9).
    pub gate: AdmissionGate,
    /// Drain state + in-flight request count.
    pub lifecycle: Lifecycle,
    /// Tail-sampled retained traces (`/v1/traces`, DESIGN.md §11).
    pub traces: TraceStore,
}

/// A live capture armed for one request: the shared trace plus the root
/// `request` span guard. Finish the root, then [`ServerState::finish_trace`]
/// makes the tail-sampling call.
pub struct RequestTrace {
    /// The trace every span of this request records into.
    pub trace: Arc<ActiveTrace>,
    /// The root span covering the whole request.
    pub root: Span,
}

impl ServerState {
    /// Looks up a served KB by route name.
    pub fn entry(&self, name: &str) -> Option<&KbEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The per-request budget for the given overrides, falling back to
    /// the server defaults.
    pub fn budget(&self, deadline_ms: Option<u64>, max_steps: Option<u64>) -> RepairBudget {
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.config.default_deadline);
        let max_steps = max_steps.unwrap_or(self.config.default_max_steps);
        let mut budget = RepairBudget::with_max_steps(max_steps);
        budget.deadline = deadline;
        budget
    }

    /// Arms a live span capture for one request, if capture is enabled.
    ///
    /// A `traceparent` request header adopts the caller's trace id (the
    /// remote parent span is kept as a root-span attribute — the stored
    /// root keeps a `null` parent so the tree is self-contained);
    /// `?trace=1` forces retention at tail-sampling time. The W3C sampled
    /// flag is *not* honored: retention here is the tail policy's call.
    pub fn start_trace(&self, req: &Request, route: &str, kb: &str) -> Option<RequestTrace> {
        if !self.config.trace_capture {
            return None;
        }
        let forced = matches!(req.query_param("trace"), Some("1") | Some("true"));
        let remote = req.header("traceparent").and_then(parse_traceparent);
        let id = remote
            .map(|(id, _, _)| id)
            .unwrap_or_else(TraceId::generate);
        let trace = Arc::new(ActiveTrace::new(id, self.config.trace_max_spans, forced));
        let mut root = SpanCtx::root(Arc::clone(&trace)).child("request");
        root.attr("route", route);
        root.attr("kb", kb);
        if let Some((_, parent, _)) = remote {
            root.attr("remote_parent", &parent.to_hex());
        }
        Some(RequestTrace { trace, root })
    }

    /// Tail-sampling decision for a finished capture (the root span must
    /// already be finished). Returns the trace id's hex when the trace was
    /// retained. Records `trace_retained_total{why}` and the live-surface
    /// `trace_dropped_spans_total`.
    pub fn finish_trace(
        &self,
        trace: &ActiveTrace,
        route: &str,
        kb: &str,
        error: bool,
    ) -> Option<String> {
        let metrics = self.obs.metrics();
        if trace.dropped() > 0 {
            metrics
                .counter("trace_dropped_spans_total", &[("surface", "live")])
                .add(trace.dropped());
        }
        let why = self.traces.offer(trace, route, kb, error)?;
        metrics
            .counter("trace_retained_total", &[("why", why)])
            .inc();
        Some(trace.id().to_hex())
    }
}

/// A parsed `--kb` flag value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbSpec {
    /// `nobel[:size[:seed]]` — synthetic Nobel world against a YAGO-like
    /// KB profile (defaults: 200 laureates, seed 7).
    Nobel {
        /// Laureate count.
        size: usize,
        /// World seed.
        seed: u64,
    },
    /// `uis[:size[:seed]]` — synthetic UIS world (defaults: 200 records,
    /// seed 7).
    Uis {
        /// Record count.
        size: usize,
        /// World seed.
        seed: u64,
    },
    /// `nobel-mini` — the paper's Table 1 / Figure 4 fixture KB.
    NobelMini,
    /// `--kb-image <family>=<path>` — boot from a packed `.drkb` image via
    /// mmap, skipping KB construction entirely. The family picks the
    /// schema and rule set the image is served with.
    Image {
        /// Which schema/rules the imaged KB speaks.
        family: ImageFamily,
        /// Path to the `.drkb` file.
        path: PathBuf,
    },
}

/// The schema/rule family an imaged KB belongs to. A `.drkb` file stores
/// only the graph; rules and the canonical relation schema come from the
/// family named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageFamily {
    /// Nobel-laureate schema + rules.
    Nobel,
    /// UIS schema + rules.
    Uis,
    /// The paper's Table 1 / Figure 4 fixture schema + rules.
    NobelMini,
}

impl ImageFamily {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "nobel" => Ok(ImageFamily::Nobel),
            "uis" => Ok(ImageFamily::Uis),
            "nobel-mini" => Ok(ImageFamily::NobelMini),
            other => Err(format!(
                "unknown KB family {other:?} (expected nobel, uis, or nobel-mini)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ImageFamily::Nobel => "nobel",
            ImageFamily::Uis => "uis",
            ImageFamily::NobelMini => "nobel-mini",
        }
    }
}

impl KbSpec {
    /// Parses a `--kb` value. Accepted grammar:
    /// `nobel`, `nobel:500`, `nobel:500:42`, `uis[:size[:seed]]`,
    /// `nobel-mini`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let size = parts
            .next()
            .map(|s| {
                s.parse::<usize>()
                    .map_err(|_| format!("bad size {s:?} in --kb {spec:?}"))
            })
            .transpose()?
            .unwrap_or(200);
        let seed = parts
            .next()
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad seed {s:?} in --kb {spec:?}"))
            })
            .transpose()?
            .unwrap_or(7);
        if parts.next().is_some() {
            return Err(format!("too many `:` fields in --kb {spec:?}"));
        }
        match head {
            "nobel" => Ok(KbSpec::Nobel { size, seed }),
            "uis" => Ok(KbSpec::Uis { size, seed }),
            "nobel-mini" => {
                if spec != "nobel-mini" {
                    return Err(format!("nobel-mini takes no parameters (got {spec:?})"));
                }
                Ok(KbSpec::NobelMini)
            }
            other => Err(format!(
                "unknown KB {other:?} (expected nobel, uis, or nobel-mini)"
            )),
        }
    }

    /// Parses a `--kb-image` value: `<family>=<path>`, e.g.
    /// `nobel-mini=/var/lib/dr/nobel-mini.drkb`.
    pub fn parse_image(spec: &str) -> Result<Self, String> {
        let (family, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--kb-image wants <family>=<path>, got {spec:?}"))?;
        if path.is_empty() {
            return Err(format!("empty path in --kb-image {spec:?}"));
        }
        Ok(KbSpec::Image {
            family: ImageFamily::parse(family)?,
            path: PathBuf::from(path),
        })
    }

    /// The route name the entry will be served under.
    pub fn name(&self) -> &'static str {
        match self {
            KbSpec::Nobel { .. } => "nobel",
            KbSpec::Uis { .. } => "uis",
            KbSpec::NobelMini => "nobel-mini",
            KbSpec::Image { family, .. } => family.name(),
        }
    }

    /// Which backend this spec boots: `"mem"` or `"mmap"` (the
    /// `kb_load_seconds` histogram label).
    pub fn backend(&self) -> &'static str {
        match self {
            KbSpec::Image { .. } => "mmap",
            _ => "mem",
        }
    }

    /// Builds the KB, schema, and rules for this spec. The KB is
    /// `Arc`-owned so deltas can swap generations and unload can release
    /// the memory.
    fn build(&self) -> Result<(OwnedKb, Arc<Schema>, Vec<dr_core::DetectiveRule>), String> {
        match *self {
            KbSpec::Nobel { size, seed } => {
                let world = NobelWorld::generate(size, seed);
                let kb = Arc::new(world.kb(&KbProfile::yago()));
                let rules = NobelWorld::rules(&*kb);
                Ok((OwnedKb::Mem(kb), NobelWorld::schema(), rules))
            }
            KbSpec::Uis { size, seed } => {
                let world = UisWorld::generate(size, seed);
                let kb = Arc::new(world.kb(&KbProfile::yago()));
                let rules = UisWorld::rules(&*kb);
                Ok((OwnedKb::Mem(kb), UisWorld::schema(), rules))
            }
            KbSpec::NobelMini => {
                let kb = Arc::new(dr_kb::fixtures::nobel_mini_kb());
                let rules = dr_core::fixtures::figure4_rules(&*kb);
                Ok((OwnedKb::Mem(kb), dr_core::fixtures::nobel_schema(), rules))
            }
            KbSpec::Image { family, ref path } => {
                let mapped = Arc::new(
                    MappedKb::open(path)
                        .map_err(|e| format!("--kb-image {}: {e}", path.display()))?,
                );
                let (schema, rules) = match family {
                    ImageFamily::Nobel => (NobelWorld::schema(), NobelWorld::rules(&*mapped)),
                    ImageFamily::Uis => (UisWorld::schema(), UisWorld::rules(&*mapped)),
                    ImageFamily::NobelMini => (
                        dr_core::fixtures::nobel_schema(),
                        dr_core::fixtures::figure4_rules(&*mapped),
                    ),
                };
                Ok((OwnedKb::Mapped(mapped), schema, rules))
            }
        }
    }
}

/// Builds the full server state: one entry per spec, prewarmed, with the
/// entry's value cache created eagerly so disk snapshots load at boot.
///
/// Duplicate spec names are rejected (two `--kb nobel:...` flags would
/// race for one route and one cache fingerprint).
pub fn build_state(
    specs: &[KbSpec],
    registry_config: RegistryConfig,
    obs: Arc<Obs>,
    config: ServeConfig,
) -> Result<ServerState, String> {
    let registry = Arc::new(CacheRegistry::new(registry_config));
    registry.register_metrics(obs.metrics());
    // The standard "what binary is this" gauge: always 1, the value lives
    // in the labels. `/healthz` carries the same version for humans.
    obs.metrics()
        .gauge(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
        )
        .set(1);

    let mut entries: Vec<KbEntry> = Vec::with_capacity(specs.len());
    for spec in specs {
        let name = spec.name().to_owned();
        if entries.iter().any(|e| e.name == name) {
            return Err(format!("duplicate --kb entry {name:?}"));
        }
        // The KB load/alignment phase, timed per backend: the histogram
        // is the greppable evidence that an mmap boot skips the parse
        // (`kb_load_seconds{backend="mmap"}` vs `backend="mem"`); `/kbs`
        // reports what was loaded.
        let load_started = Instant::now();
        let (kb, schema, rules) = spec.build()?;
        obs.metrics()
            .histogram("kb_load_seconds", &[("backend", spec.backend())])
            .record(load_started.elapsed());
        let core = Arc::new(KbCore {
            kb,
            rules: Arc::new(rules),
            memo: IndexMemo::new(),
        });
        let ctx = core.context(Arc::clone(&registry), Arc::clone(&obs));
        ctx.prewarm(&core.rules);
        // Create the value cache now: a `--cache-dir` snapshot warm-loads
        // here, at boot, so the first request is already warm and
        // `/metrics` shows `snapshot_warm_loads_total` before any POST.
        let _ = ctx.value_cache_for(&schema);
        drop(ctx);
        entries.push(KbEntry {
            name,
            schema,
            core: RwLock::new(Some(core)),
        });
    }
    if entries.is_empty() {
        return Err("no KBs configured; pass at least one --kb".into());
    }

    let gate = AdmissionGate::new(config.admission, obs.metrics());
    let traces = TraceStore::new(
        config.trace_store_capacity,
        TailPolicy {
            slow: config.trace_slow,
            keep_errors: config.trace_errors,
        },
    );
    Ok(ServerState {
        entries,
        registry,
        obs,
        started: Instant::now(),
        config,
        gate,
        lifecycle: Lifecycle::default(),
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kb_spec_grammar() {
        assert_eq!(
            KbSpec::parse("nobel").unwrap(),
            KbSpec::Nobel { size: 200, seed: 7 }
        );
        assert_eq!(
            KbSpec::parse("nobel:500:42").unwrap(),
            KbSpec::Nobel {
                size: 500,
                seed: 42
            }
        );
        assert_eq!(
            KbSpec::parse("uis:50").unwrap(),
            KbSpec::Uis { size: 50, seed: 7 }
        );
        assert_eq!(KbSpec::parse("nobel-mini").unwrap(), KbSpec::NobelMini);
        assert!(KbSpec::parse("nobel:x").is_err());
        assert!(KbSpec::parse("nobel:1:2:3").is_err());
        assert!(KbSpec::parse("nobel-mini:5").is_err());
        assert!(KbSpec::parse("freebase").is_err());
    }

    #[test]
    fn kb_image_spec_grammar() {
        assert_eq!(
            KbSpec::parse_image("nobel-mini=/tmp/x.drkb").unwrap(),
            KbSpec::Image {
                family: ImageFamily::NobelMini,
                path: PathBuf::from("/tmp/x.drkb"),
            }
        );
        assert_eq!(KbSpec::parse_image("uis=rel/a.drkb").unwrap().name(), "uis");
        assert!(KbSpec::parse_image("nobel-mini").is_err());
        assert!(KbSpec::parse_image("nobel-mini=").is_err());
        assert!(KbSpec::parse_image("freebase=/tmp/x.drkb").is_err());
        assert_eq!(KbSpec::parse_image("nobel=/a").unwrap().backend(), "mmap");
        assert_eq!(KbSpec::NobelMini.backend(), "mem");
    }

    #[test]
    fn image_spec_serves_like_memory() {
        let path = std::env::temp_dir().join(format!("dr-serve-image-{}.drkb", std::process::id()));
        let kb = dr_kb::fixtures::nobel_mini_kb();
        dr_kb::write_image(&path, &kb).expect("pack fixture");

        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::Image {
                family: ImageFamily::NobelMini,
                path: path.clone(),
            }],
            RegistryConfig::default(),
            Arc::clone(&obs),
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let core = entry.core().expect("entry is loaded");
        assert_eq!(core.kb.as_ref().backend(), "mmap");
        assert_eq!(core.kb.as_ref().content_hash(), kb.content_hash());
        assert_eq!(core.kb.as_ref().num_instances(), kb.num_instances());
        assert!(!core.memo.is_empty(), "prewarm ran against the image");
        let dump = obs.metrics().snapshot().render_prom();
        assert!(
            dump.contains("kb_load_seconds") && dump.contains("backend=\"mmap\""),
            "kb_load_seconds{{backend=mmap}} recorded: {dump}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn image_spec_reports_open_errors() {
        let obs = Arc::new(Obs::new());
        let err = build_state(
            &[KbSpec::Image {
                family: ImageFamily::Nobel,
                path: PathBuf::from("/nonexistent/missing.drkb"),
            }],
            RegistryConfig::default(),
            obs,
            ServeConfig::default(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("missing.drkb"), "{err}");
    }

    #[test]
    fn build_state_rejects_duplicates_and_empties() {
        let obs = Arc::new(Obs::new());
        let err = build_state(
            &[KbSpec::NobelMini, KbSpec::NobelMini],
            RegistryConfig::default(),
            Arc::clone(&obs),
            ServeConfig::default(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");

        let err = build_state(&[], RegistryConfig::default(), obs, ServeConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("no KBs"), "{err}");
    }

    #[test]
    fn built_entries_are_prewarmed_and_cached() {
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            obs,
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let core = entry.core().expect("entry is loaded");
        assert!(!core.memo.is_empty(), "prewarm built indexes");
        assert_eq!(state.registry.stats().live_caches, 1, "value cache created");
        assert!(state.entry("nobel").is_none());
    }

    #[test]
    fn delta_swaps_generation_and_keeps_old_core_alive() {
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            obs,
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let core0 = entry.core().expect("loaded");
        let gen0 = core0.kb.as_ref().generation();

        let mut delta = KbDelta::new();
        delta.add_type("Test Laureate", dr_kb::fixtures::names::LAUREATE);
        let outcome = entry.apply_delta(&delta, &state.registry).expect("applies");
        assert_ne!(outcome.generation, gen0);

        let core1 = entry.core().expect("still loaded");
        assert_eq!(core1.kb.as_ref().generation(), outcome.generation);
        assert!(!core1.memo.is_empty(), "successor core is prewarmed");
        // The pre-delta handle keeps serving its own generation: in-flight
        // requests are unaffected by the swap.
        assert_eq!(core0.kb.as_ref().generation(), gen0);
    }

    /// A rule node over the `city` class of `core`'s KB.
    fn city_node(core: &KbCore) -> dr_core::SchemaNode {
        let city = core
            .kb
            .as_ref()
            .class_named(dr_kb::fixtures::names::CITY)
            .unwrap();
        core.rules
            .iter()
            .flat_map(|r| r.evidence().iter().chain([r.positive(), r.negative()]))
            .find(|n| n.ty == dr_core::NodeType::Class(city))
            .copied()
            .expect("the Figure 4 rules match cities")
    }

    /// An edge-only delta leaves every class extent alone, so the successor
    /// serves the predecessor's class index itself; a `type+` on the class
    /// makes the successor rebuild it.
    #[test]
    fn successor_inherits_indexes_its_delta_leaves_untouched() {
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            Arc::new(Obs::new()),
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let core0 = entry.core().expect("loaded");
        let city = city_node(&core0);
        let index_of = |core: &KbCore| {
            core.context(Arc::clone(&state.registry), Arc::clone(&state.obs))
                .index_for(city.ty, city.sim)
        };
        let index0 = index_of(&core0);

        let mut edge_only = KbDelta::new();
        edge_only.retract(
            "Israel Institute of Technology",
            dr_kb::fixtures::names::LOCATED_IN,
            dr_kb::DeltaNode::Instance("Haifa".into()),
        );
        entry
            .apply_delta(&edge_only, &state.registry)
            .expect("applies");
        let core1 = entry.core().expect("loaded");
        assert!(Arc::ptr_eq(&index0, &index_of(&core1)));

        let mut typed = KbDelta::new();
        typed.add_type("Tel Aviv", dr_kb::fixtures::names::CITY);
        entry.apply_delta(&typed, &state.registry).expect("applies");
        let core2 = entry.core().expect("loaded");
        let index2 = index_of(&core2);
        assert!(!Arc::ptr_eq(&index0, &index2), "a type+ on city rebuilds");
        assert_eq!(index2.len(), index0.len() + 1);
    }

    /// `DELETE /v1/kbs/{kb}` drops the generation's index set with its
    /// value caches.
    #[test]
    fn unload_drops_the_generations_indexes() {
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            Arc::new(Obs::new()),
            ServeConfig::default(),
        )
        .unwrap();
        let generation = state
            .entry("nobel-mini")
            .and_then(KbEntry::core)
            .expect("loaded")
            .kb
            .as_ref()
            .generation();
        assert!(state.registry.indexed_generations().contains(&generation));
        let delete = Request {
            method: "DELETE".into(),
            path: "/v1/kbs/nobel-mini".into(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            http11: true,
        };
        assert_eq!(crate::handlers::handle(&state, &delete).status, 200);
        assert!(!state.registry.indexed_generations().contains(&generation));
    }

    /// Index sets share the registry's `max_caches` bound: building twice
    /// that many KBs keeps only the most recent ones' indexes.
    #[test]
    fn index_sets_stay_within_max_caches() {
        let max_caches = 3;
        let registry = Arc::new(CacheRegistry::new(RegistryConfig {
            max_caches,
            ..RegistryConfig::default()
        }));
        let obs = Arc::new(Obs::new());
        let mut last = 0;
        for _ in 0..2 * max_caches {
            let (kb, _, rules) = KbSpec::NobelMini.build().unwrap();
            let core = KbCore {
                kb,
                rules: Arc::new(rules),
                memo: IndexMemo::new(),
            };
            core.context(Arc::clone(&registry), Arc::clone(&obs))
                .prewarm(&core.rules);
            last = core.kb.as_ref().generation();
        }
        let held = registry.indexed_generations();
        assert_eq!(held.len(), max_caches);
        assert!(held.contains(&last), "the newest generation is kept");
    }

    #[test]
    fn rejected_delta_leaves_the_core_untouched() {
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            obs,
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let gen0 = entry.core().expect("loaded").kb.as_ref().generation();

        let mut delta = KbDelta::new();
        delta.add_subclass("A", "B").add_subclass("B", "A");
        let err = entry.apply_delta(&delta, &state.registry).unwrap_err();
        assert!(matches!(err, DeltaApplyError::Rejected(_)), "{err:?}");
        assert_eq!(entry.core().expect("loaded").kb.as_ref().generation(), gen0);
    }

    #[test]
    fn unload_takes_the_core_and_refuses_further_work() {
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            obs,
            ServeConfig::default(),
        )
        .unwrap();
        let entry = state.entry("nobel-mini").expect("entry exists");
        let removed = entry.unload().expect("first unload returns the core");
        assert!(entry.core().is_none());
        assert!(entry.unload().is_none(), "second unload is a no-op");

        let mut delta = KbDelta::new();
        delta.add_type("X", dr_kb::fixtures::names::LAUREATE);
        assert!(matches!(
            entry.apply_delta(&delta, &state.registry),
            Err(DeltaApplyError::Unloaded)
        ));
        drop(removed); // last handle: the KB's memory goes with it
    }

    #[test]
    fn budget_prefers_request_overrides() {
        let obs = Arc::new(Obs::new());
        let config = ServeConfig {
            default_deadline: Some(Duration::from_millis(250)),
            default_max_steps: 10,
            ..ServeConfig::default()
        };
        let state =
            build_state(&[KbSpec::NobelMini], RegistryConfig::default(), obs, config).unwrap();

        let b = state.budget(None, None);
        assert_eq!(b.deadline, Some(Duration::from_millis(250)));
        assert_eq!(b.max_steps, 10);

        let b = state.budget(Some(50), Some(3));
        assert_eq!(b.deadline, Some(Duration::from_millis(50)));
        assert_eq!(b.max_steps, 3);
    }
}
