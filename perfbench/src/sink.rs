//! The response sink the benchmark hands to the service: it digests the
//! byte stream, counts lines and error lines, and stamps the instant each
//! line arrives.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running 64-bit FNV-1a digest of a response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one response line plus the newline the service writes after it.
    pub fn line(&mut self, line: &str) {
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct State {
    digest: Digest,
    errors: u64,
    line: Vec<u8>,
    stamps: Vec<Instant>,
}

struct Shared {
    lines: AtomicU64,
    state: Mutex<State>,
}

/// The benchmark's handle on a sink: reads what the service wrote.
#[derive(Clone)]
pub struct Tap(Arc<Shared>);

/// The `Write` end of a [`Tap`], boxed into the service.
pub struct DigestSink(Arc<Shared>);

impl Tap {
    /// A fresh tap with no lines.
    pub fn new() -> Self {
        Self(Arc::new(Shared {
            lines: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        }))
    }

    /// The writer to hand to the service.
    pub fn sink(&self) -> Box<DigestSink> {
        Box::new(DigestSink(Arc::clone(&self.0)))
    }

    /// Complete lines received since the last [`Tap::reset`].
    pub fn lines(&self) -> u64 {
        self.0.lines.load(Ordering::Acquire)
    }

    /// Spins until at least `n` lines have arrived. The waiting client
    /// keeps its CPU rather than paying a futex wake per response.
    pub fn wait_for(&self, n: u64) {
        let mut spins = 0u32;
        while self.lines() < n {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) {
                std::thread::yield_now();
            }
        }
    }

    /// Forgets everything received so far (used after warm-up, while the
    /// service is idle).
    pub fn reset(&self) {
        let mut state = self.state();
        *state = State::default();
        self.0.lines.store(0, Ordering::Release);
    }

    /// Digest of the stream since the last reset.
    pub fn digest(&self) -> Digest {
        self.state().digest
    }

    /// Lines that were not `"ok":true` responses.
    pub fn errors(&self) -> u64 {
        self.state().errors
    }

    /// Arrival instant of every line since the last reset, in order.
    pub fn take_stamps(&self) -> Vec<Instant> {
        std::mem::take(&mut self.state().stamps)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.0
            .state
            .lock()
            .expect("sink state poisoned by a panicking writer")
    }
}

impl Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self
            .0
            .state
            .lock()
            .expect("sink state poisoned by a panicking reader");
        state.digest.bytes(buf);
        for &b in buf {
            if b != b'\n' {
                state.line.push(b);
                continue;
            }
            let ok = state
                .line
                .windows(OK_FIELD.len())
                .any(|w| w == OK_FIELD.as_bytes());
            if !ok {
                state.errors += 1;
            }
            state.line.clear();
            state.stamps.push(Instant::now());
            self.0.lines.fetch_add(1, Ordering::Release);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const OK_FIELD: &str = "\"ok\":true";

/// Seconds each full `window` of consecutive arrivals took: window `i`
/// runs from stamp `i·window` to stamp `(i+1)·window`, so the windows
/// tile the stream and each spans `window` gaps. A partial last window is
/// dropped.
pub fn window_secs(stamps: &[Instant], window: usize) -> Vec<f64> {
    (0..stamps.len().saturating_sub(1) / window)
        .map(|i| {
            stamps[(i + 1) * window]
                .duration_since(stamps[i * window])
                .as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_over_line_and_newline() {
        let mut d = Digest::default();
        assert_eq!(d.value(), FNV_OFFSET);
        d.bytes(b"a");
        // FNV-1a 64 of "a" is a published test vector.
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut line = Digest::default();
        line.line("a");
        let mut raw = Digest::default();
        raw.bytes(b"a\n");
        assert_eq!(line, raw);
    }

    #[test]
    fn sink_digest_ignores_how_writes_are_split() {
        let tap = Tap::new();
        let mut sink = tap.sink();
        sink.write_all(b"{\"ok\":true}").unwrap();
        sink.write_all(b"\n{\"ok\":tr").unwrap();
        sink.write_all(b"ue}\n").unwrap();
        let mut expect = Digest::default();
        expect.line("{\"ok\":true}");
        expect.line("{\"ok\":true}");
        assert_eq!(tap.digest(), expect);
        assert_eq!(tap.lines(), 2);
        assert_eq!(tap.errors(), 0);
        assert_eq!(tap.take_stamps().len(), 2);
    }

    #[test]
    fn windows_tile_the_stream_and_drop_a_partial_one() {
        let t0 = Instant::now();
        let ms = std::time::Duration::from_millis;
        // Stamps at 0, 1, 3, 6, 10, 15, 21 ms: windows of 3 gaps are
        // 0→6 and 6→21 ms; the last stamp alone is no full window.
        let at = [0, 1, 3, 6, 10, 15, 21, 28];
        let stamps: Vec<Instant> = at.iter().map(|&i| t0 + ms(i)).collect();
        let w = window_secs(&stamps, 3);
        assert_eq!(w.len(), 2);
        assert!((w[0] - 0.006).abs() < 1e-9 && (w[1] - 0.015).abs() < 1e-9, "{w:?}");
        assert!(window_secs(&stamps[..3], 3).is_empty());
        assert!(window_secs(&[], 3).is_empty());
    }

    #[test]
    fn sink_counts_error_lines_and_resets() {
        let tap = Tap::new();
        let mut sink = tap.sink();
        sink.write_all(b"{\"ok\":false,\"error\":{}}\n").unwrap();
        sink.write_all(b"{\"ok\":true}\n").unwrap();
        assert_eq!((tap.lines(), tap.errors()), (2, 1));
        tap.wait_for(2);
        tap.reset();
        assert_eq!((tap.lines(), tap.errors()), (0, 0));
        assert_eq!(tap.digest(), Digest::default());
        assert!(tap.take_stamps().is_empty());
    }
}
