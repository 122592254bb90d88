//! Spans around the benchmark's own calls into each layer.
//!
//! The program is not instrumented: every span wraps one call the
//! benchmark makes into a layer's public API (`Network::transfer`,
//! `NetStack::pump`, the socket calls, `Httpd::poll`) or one piece of
//! the benchmark's own client work. A timed window is a root span;
//! layer spans are its children and have no children of their own, so
//! a layer span's self time is its duration, and the root's self time
//! is the part of the window no span covers (loop control and the
//! tracer's own bookkeeping).
//!
//! Workload code is generic over [`Tracer`]: [`Untraced`] compiles
//! every span down to the bare call, so the end-to-end run and the
//! traced run execute the same code.

use std::time::Instant;

use ukalloc::stats::heap_alloc_count;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Network::transfer`: the in-process wire (harvest, host TSO
    /// cut, fault schedule, one RX burst per destination).
    Transfer,
    /// `NetStack::pump` on the client stack.
    PumpClient,
    /// `NetStack::pump` on the server stack.
    PumpServer,
    /// Socket send calls (`tcp_send`, `udp_send_to`), either side.
    Send,
    /// Socket receive calls (`tcp_recv_into`, `udp_recv_into`).
    Recv,
    /// `tcp_connect`.
    Connect,
    /// `tcp_close`.
    Close,
    /// `Httpd::poll`: the server application and the socket calls it
    /// makes itself.
    HttpdPoll,
    /// The benchmark's own client work: choosing the next message,
    /// checking replies, recording timings.
    Client,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 9] = [
    Layer::Transfer,
    Layer::PumpClient,
    Layer::PumpServer,
    Layer::Send,
    Layer::Recv,
    Layer::Connect,
    Layer::Close,
    Layer::HttpdPoll,
    Layer::Client,
];

impl Layer {
    /// The span name (also the per-layer metric stem).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Transfer => "testnet.transfer",
            Layer::PumpClient => "uknetstack.pump_client",
            Layer::PumpServer => "uknetstack.pump_server",
            Layer::Send => "uknetstack.send",
            Layer::Recv => "uknetstack.recv",
            Layer::Connect => "uknetstack.connect",
            Layer::Close => "uknetstack.close",
            Layer::HttpdPoll => "ukapps.httpd_poll",
            Layer::Client => "bench.client",
        }
    }
}

/// Wraps calls into layers.
pub trait Tracer {
    /// Whether spans are recorded (gates the per-step gauge sampling).
    const ON: bool;
    /// Runs `f` as one span of `layer` on behalf of operation `op`.
    fn span<R>(&mut self, layer: Layer, op: u64, f: impl FnOnce() -> R) -> R;
}

/// No spans: the end-to-end configuration.
#[derive(Debug, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    const ON: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _: Layer, _: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the recorder's
/// epoch; `parent` is the enclosing window's id (`u32::MAX` for a
/// window itself).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (dense, from 0).
    pub id: u32,
    /// Enclosing span id.
    pub parent: u32,
    /// Index into [`LAYERS`], or `u8::MAX` for a window.
    pub layer: u8,
    /// Operation the span worked for (the oldest operation in flight
    /// for shared work such as wire steps and pumps).
    pub op: u64,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Heap allocations made inside the span.
    pub allocs: u32,
}

/// Per-layer totals over every span recorded (kept spans or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed heap allocations.
    pub allocs: u64,
}

/// Records spans into memory allocated up front; spans beyond the
/// capacity still count in the totals but are not kept.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    window: Option<(u32, u64)>,
    /// Per-layer totals, indexed like [`LAYERS`].
    pub totals: [LayerTotals; LAYERS.len()],
    /// Summed length of every closed window, ns.
    pub window_ns: u64,
}

impl Recorder {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            next_id: 0,
            window: None,
            totals: [LayerTotals::default(); LAYERS.len()],
            window_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keep(&mut self, s: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(s);
        }
    }

    fn id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Opens a timed window (the root span of what follows).
    pub fn open_window(&mut self) {
        let id = self.id();
        self.window = Some((id, self.now_ns()));
    }

    /// Closes the open window.
    pub fn close_window(&mut self) {
        if let Some((id, start_ns)) = self.window.take() {
            let end_ns = self.now_ns();
            self.window_ns += end_ns - start_ns;
            self.keep(Span {
                id,
                parent: u32::MAX,
                layer: u8::MAX,
                op: 0,
                start_ns,
                end_ns,
                allocs: 0,
            });
        }
    }

    /// Spans recorded across every layer.
    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    #[inline]
    fn span<R>(&mut self, layer: Layer, op: u64, f: impl FnOnce() -> R) -> R {
        let a0 = heap_alloc_count();
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let allocs = heap_alloc_count() - a0;
        let li = layer as usize;
        let t = &mut self.totals[li];
        t.count += 1;
        t.self_ns += end_ns - start_ns;
        t.allocs += allocs;
        let id = self.id();
        let parent = self.window.map_or(u32::MAX, |w| w.0);
        self.keep(Span {
            id,
            parent,
            layer: li as u8,
            op,
            start_ns,
            end_ns,
            allocs: allocs as u32,
        });
        r
    }
}

/// The tracer's own cost per span, measured on empty spans:
/// `(inside, total)` ns — the part that lands inside a span's
/// measured duration, and the whole cost including the bookkeeping
/// between spans.
pub fn span_cost_ns() -> (f64, f64) {
    const N: u64 = 200_000;
    let mut rec = Recorder::new(0);
    let t0 = Instant::now();
    for i in 0..N {
        rec.span(Layer::Client, i, || std::hint::black_box(i));
    }
    let total = t0.elapsed().as_nanos() as f64 / N as f64;
    let inside = rec.totals[Layer::Client as usize].self_ns as f64 / N as f64;
    (inside, total)
}
