//! In-memory host-time tracing for the traced run.
//!
//! Every span wraps one call from this benchmark into a layer's public
//! function; nothing inside the program is instrumented. Spans on a
//! worker thread accumulate into that worker's [`LayerTimes`] (their
//! count makes per-span records too large to keep), and the calling
//! thread records one [`Span`] per coarse operation — a frame, a
//! training step, a replay, a pool dispatch — with its parent, so the
//! written-out trace shows where each operation's time went.

use std::collections::HashMap;
use std::ops::Range;
// lint: allow(d3): worker identities for per-worker busy time; spawns
// nothing
use std::thread::ThreadId;
use std::time::Instant;

/// The layers the traced run attributes host time to, named after the
/// workspace modules they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `nerf::sampler` — Stage-I ray marching.
    Sampler,
    /// `nerf::encoding` — hash-grid gather.
    Encoding,
    /// `nerf::mlp` — density and colour networks.
    Mlp,
    /// `nerf::render` — volumetric compositing.
    Render,
    /// The backward pass: `nerf::render` composite backward, `nerf::mlp`
    /// and `nerf::encoding` backward.
    Backward,
    /// `nerf::adam` via `nerf::model::ModelOptimizer`.
    Adam,
    /// `nerf::occupancy` refreshes.
    Occupancy,
    /// `nerf::model` and `nerf::dataset` glue: ray batches, gradient
    /// merges.
    Model,
    /// `nerf::io` container decodes (registry misses).
    Io,
    /// `serve::registry` hits.
    Registry,
    /// `serve::queue` admission and batching.
    Queue,
    /// `core` frame tracing (`nerf::pipeline::trace_frame`).
    CoreTrace,
    /// `core` frame simulation.
    CoreSimulate,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 13;

/// Per-layer host time and call counts of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl LayerTimes {
    /// Runs `f` as a span of `layer`.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `ns` of `layer` time as one call.
    #[inline]
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += 1;
    }

    /// Adds every layer of `other`.
    pub fn add_all(&mut self, other: &LayerTimes) {
        for k in 0..LAYERS {
            self.ns[k] += other.ns[k];
            self.calls[k] += other.calls[k];
        }
    }

    /// Seconds spent in `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 * 1e-9
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// Work counted at the per-ray layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    /// Rays sampled.
    pub rays: u64,
    /// Samples retained by the sampler.
    pub samples: u64,
    /// Calls into the MLP (one per ray).
    pub mlp_calls: u64,
    /// Rays composited with early stop on that reached the cut-off.
    pub early_stopped: u64,
    /// Rays composited with early stop on.
    pub early_stop_rays: u64,
    /// Samples through the backward pass.
    pub backward_points: u64,
}

impl StageCounts {
    /// Adds every count of `other`.
    pub fn add_all(&mut self, other: &StageCounts) {
        self.rays += other.rays;
        self.samples += other.samples;
        self.mlp_calls += other.mlp_calls;
        self.early_stopped += other.early_stopped;
        self.early_stop_rays += other.early_stop_rays;
        self.backward_points += other.backward_points;
    }
}

/// What one chunk of a pool dispatch reports back: its worker, busy
/// time, layer times and counts.
#[derive(Debug, Clone, Copy)]
pub struct ChunkTimes {
    /// The worker thread that ran the chunk.
    pub worker: ThreadId,
    /// Wall time of the chunk.
    pub busy_ns: u64,
    /// Layer spans inside the chunk.
    pub layers: LayerTimes,
    /// Work counted inside the chunk.
    pub counts: StageCounts,
}

/// One coarse span of the calling thread.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `layer/operation`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, ns since the trace began.
    pub ns: Range<u64>,
}

/// The traced run's record: coarse spans, the layer times of every
/// thread, and the pool-dispatch statistics.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Layer times summed over every thread.
    pub layers: LayerTimes,
    /// Per-ray work counted on every thread.
    pub counts: StageCounts,
    /// Pool dispatches recorded.
    pub dispatches: u64,
    /// Σ over dispatches of wall time.
    pub dispatch_wall_ns: u64,
    /// Σ over dispatches of wall time minus the busiest worker's time.
    pub dispatch_overhead_ns: u64,
    /// Σ over dispatches of the busiest worker's busy time.
    max_busy_ns: u64,
    /// Σ over dispatches of the mean busy time over the pool's workers.
    mean_busy_ns: f64,
    /// Calling-thread time inside layer spans or dispatches.
    covered_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: LayerTimes::default(),
            counts: StageCounts::default(),
            dispatches: 0,
            dispatch_wall_ns: 0,
            dispatch_overhead_ns: 0,
            max_busy_ns: 0,
            mean_busy_ns: 0.0,
            covered_ns: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a coarse span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        self.spans.push(Span { name, parent: self.open.last().copied(), ns: start..start });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        match self.spans.get_mut(id) {
            Some(span) => {
                span.ns.end = end;
                end - span.ns.start
            }
            None => 0,
        }
    }

    /// Runs `f` on the calling thread as a span of `layer`, recorded
    /// as a coarse span named `name`.
    pub fn time<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        let ns = self.end(id);
        self.attribute(layer, ns);
        out
    }

    /// Attributes `ns` of calling-thread time to `layer`, for a span
    /// whose layer is known only after its call returns.
    pub fn attribute(&mut self, layer: Layer, ns: u64) {
        self.layers.add(layer, ns);
        self.covered_ns += ns;
    }

    /// Runs one pool dispatch as a coarse span: `f` returns the
    /// dispatch's output and its chunks' times, which are merged here
    /// together with the dispatch overhead and imbalance.
    pub fn dispatch<T>(&mut self, threads: usize, f: impl FnOnce() -> (T, Vec<ChunkTimes>)) -> T {
        let id = self.begin("par/dispatch");
        let (out, chunks) = f();
        let wall = self.end(id);
        let mut busy: HashMap<ThreadId, u64> = HashMap::new();
        for chunk in &chunks {
            *busy.entry(chunk.worker).or_default() += chunk.busy_ns;
            self.layers.add_all(&chunk.layers);
            self.counts.add_all(&chunk.counts);
        }
        let max_busy = busy.values().copied().max().unwrap_or(0);
        let total_busy: u64 = busy.values().sum();
        self.dispatches += 1;
        self.dispatch_wall_ns += wall;
        self.dispatch_overhead_ns += wall.saturating_sub(max_busy);
        self.max_busy_ns += max_busy;
        self.mean_busy_ns += total_busy as f64 / threads.max(1) as f64;
        self.covered_ns += wall;
        out
    }

    /// Busiest worker over the mean worker, summed over dispatches
    /// (1 = perfectly balanced).
    pub fn worker_imbalance(&self) -> f64 {
        if self.mean_busy_ns > 0.0 {
            self.max_busy_ns as f64 / self.mean_busy_ns
        } else {
            1.0
        }
    }

    /// Share of `wall_ns` the calling thread spent inside layer spans
    /// or dispatches.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        if wall_ns > 0 {
            self.covered_ns as f64 / wall_ns as f64
        } else {
            0.0
        }
    }

    /// The coarse spans as JSON lines, one per span.
    pub fn spans_jsonl(&self, job: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"job\":\"{job}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                span.name, span.ns.start, span.ns.end
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_times_accumulate_and_merge() {
        let mut a = LayerTimes::default();
        a.add(Layer::Mlp, 5);
        a.add(Layer::Mlp, 7);
        let mut b = LayerTimes::default();
        b.add(Layer::Sampler, 3);
        b.add_all(&a);
        assert_eq!(b.calls(Layer::Mlp), 2);
        assert_eq!(b.seconds(Layer::Mlp), 12.0 * 1e-9);
        assert_eq!(b.seconds(Layer::Sampler), 3.0 * 1e-9);
    }

    #[test]
    fn spans_nest_and_dispatches_cover_their_wall() {
        let mut tracer = Tracer::default();
        let frame = tracer.begin("render/frame");
        let out = tracer.dispatch(2, || {
            let chunks: Vec<ChunkTimes> = (0..4)
                .map(|_| {
                    let mut layers = LayerTimes::default();
                    layers.time(Layer::Render, || ());
                    let counts = StageCounts { rays: 1, ..StageCounts::default() };
                    let worker = std::thread::current().id();
                    ChunkTimes { worker, busy_ns: 10, layers, counts }
                })
                .collect();
            (12, chunks)
        });
        tracer.end(frame);
        assert_eq!(out, 12);
        assert_eq!(tracer.dispatches, 1);
        assert_eq!(tracer.layers.calls(Layer::Render), 4);
        assert_eq!(tracer.counts.rays, 4);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.worker_imbalance() >= 1.0);
        let lines = tracer.spans_jsonl("render");
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"par/dispatch\""));
    }
}
