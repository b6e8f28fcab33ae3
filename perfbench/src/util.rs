//! Small helpers: peak RSS from the kernel, file comparison, spans.

use std::io::Read;
use std::path::Path;
use std::time::Instant;

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MB, from the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// True when the two files hold the same bytes. Streams both, so the
/// comparison costs no memory beyond two buffers.
pub fn files_equal(a: &Path, b: &Path) -> Result<bool, String> {
    let open =
        |p: &Path| std::fs::File::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()));
    let (mut fa, mut fb) = (open(a)?, open(b)?);
    let len = |f: &std::fs::File| f.metadata().map(|m| m.len()).unwrap_or(u64::MAX);
    if len(&fa) != len(&fb) {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = read_full(&mut fa, &mut ba)?;
        let m = read_full(&mut fb, &mut bb)?;
        if n != m || ba[..n] != bb[..m] {
            return Ok(false);
        }
        if n == 0 {
            return Ok(true);
        }
    }
}

fn read_full(file: &mut std::fs::File, buf: &mut [u8]) -> Result<usize, String> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(filled)
}

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder. Disabled, every call is a no-op; enabled,
/// spans nest by call order and are written out once, at the end.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Sum of the direct children of span `id`, in seconds.
    pub fn children_total(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// Span `id`'s duration minus the time its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        self.spans[id].secs() - self.children_total(id)
    }

    /// JSON document of every span, with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_s\":{}}}",
                s.name,
                self.run_id,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_secs(i)
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        let root = t.enter("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        let children = t.children_total(root);
        assert!(children >= 0.010);
        assert!((t.self_secs(root) + children - t.spans()[root].secs()).abs() < 1e-12);
        assert_eq!(t.named("child").count(), 2);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
