//! Host-speed calibration.
//!
//! Shared virtual machines change speed by up to 2x over minutes as
//! their neighbours' load comes and goes; on such a host two sets of
//! runs of the same code can disagree by more than any useful bound.
//! Every run therefore also times a fixed kernel that shares no code
//! with the program: a handwritten recursive-descent JSON recognizer
//! over a fixed document. It is branchy byte-at-a-time parsing like the
//! program's, so it slows and speeds with the host like the program
//! does (a table-driven scan loop did not). The end-to-end metrics are
//! scaled by how fast the kernel ran against [`REFERENCE_MBPS`], and the
//! raw figures are printed beside them.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;
use crate::workload::Metric;

/// Kernel throughput that defines the reference host, MB/s.
pub const REFERENCE_MBPS: f64 = 400.0;
/// Size of the kernel's document.
const DOC_BYTES: usize = 256 * 1024;
/// Kernel passes per sample; the sample is their median.
const PASSES: usize = 5;

/// The kernel, its fixed document and the throughputs measured so far.
pub struct Calibration {
    doc: Vec<u8>,
    values: u64,
}

impl Calibration {
    /// Builds the kernel's document (the same in every run).
    pub fn new() -> Calibration {
        let doc = document();
        let values = recognize(&doc).expect("the calibration document is valid JSON");
        Calibration { doc, values }
    }

    /// Times the kernel: the median throughput of a few passes, MB/s.
    pub fn sample(&self) -> f64 {
        let mut mbps: Vec<f64> = (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                let n = recognize(black_box(&self.doc));
                let took = t.elapsed().as_secs_f64();
                assert_eq!(n, Ok(self.values), "the kernel is deterministic");
                self.doc.len() as f64 / took / 1e6
            })
            .collect();
        mbps.sort_by(f64::total_cmp);
        mbps[PASSES / 2]
    }
}

/// Scales raw end-to-end metrics to the reference host, given the
/// kernel's median throughput in the run: rates up on a slow host,
/// times down. Sizes are left as measured.
pub fn normalize(metrics: &mut [Metric], host_mbps: f64) {
    let speed = host_mbps / REFERENCE_MBPS;
    for m in metrics {
        let scale = match m.unit {
            "MB/s" | "1/s" => 1.0 / speed,
            "s" | "us" => speed,
            _ => continue,
        };
        m.note = format!(
            "{}; raw {:.4} {} on a host at {speed:.3}x the reference",
            m.note, m.value, m.unit
        );
        m.value *= scale;
    }
}

/// A fixed JSON document of about [`DOC_BYTES`]: an array of nested
/// objects, arrays, strings with escapes, numbers and literals.
fn document() -> Vec<u8> {
    fn value(rng: &mut Rng, out: &mut Vec<u8>, depth: usize) {
        match rng.below(if depth > 4 { 4 } else { 6 }) {
            0 => out.extend_from_slice([&b"true"[..], b"false", b"null"][rng.below(3)]),
            1 => out.extend_from_slice(format!("{}", rng.below(1 << 20)).as_bytes()),
            2 => {
                out.extend_from_slice(format!("-{}.{}e3", rng.below(999), rng.below(99)).as_bytes())
            }
            3 => {
                out.push(b'"');
                for _ in 0..rng.below(12) {
                    match rng.below(10) {
                        0 => out.extend_from_slice(b"\\\""),
                        1 => out.extend_from_slice(b"\\n"),
                        _ => out.push(b'a' + rng.below(26) as u8),
                    }
                }
                out.push(b'"');
            }
            4 => {
                out.push(b'[');
                for i in 0..rng.below(6) {
                    if i > 0 {
                        out.extend_from_slice(b", ");
                    }
                    value(rng, out, depth + 1);
                }
                out.push(b']');
            }
            _ => {
                out.push(b'{');
                for i in 0..rng.below(6) {
                    if i > 0 {
                        out.push(b',');
                    }
                    out.extend_from_slice(format!("\n \"k{i}\": ").as_bytes());
                    value(rng, out, depth + 1);
                }
                out.push(b'}');
            }
        }
    }
    let mut rng = Rng::new(0, "calibration");
    let mut out = vec![b'['];
    while out.len() < DOC_BYTES {
        if out.len() > 1 {
            out.extend_from_slice(b",\n");
        }
        value(&mut rng, &mut out, 0);
    }
    out.push(b']');
    out
}

/// Recognizes one JSON text, returning how many values it holds.
fn recognize(doc: &[u8]) -> Result<u64, usize> {
    let mut p = Json {
        doc,
        at: 0,
        values: 0,
    };
    p.value()?;
    p.ws();
    if p.at == doc.len() {
        Ok(p.values)
    } else {
        Err(p.at)
    }
}

struct Json<'a> {
    doc: &'a [u8],
    at: usize,
    values: u64,
}

impl Json<'_> {
    fn peek(&self) -> Option<u8> {
        self.doc.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), usize> {
        self.ws();
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.at)
        }
    }

    fn value(&mut self) -> Result<(), usize> {
        self.ws();
        self.values += 1;
        match self.peek() {
            Some(b'{') => self.seq(b'}', true),
            Some(b'[') => self.seq(b']', false),
            Some(b'"') => self.string(),
            Some(b't') => self.word(b"true"),
            Some(b'f') => self.word(b"false"),
            Some(b'n') => self.word(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.at),
        }
    }

    /// An object (`keyed`) or array body after its opening byte.
    fn seq(&mut self, close: u8, keyed: bool) -> Result<(), usize> {
        self.at += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            if keyed {
                self.ws();
                self.string()?;
                self.eat(b':')?;
            }
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.at),
            }
        }
    }

    fn string(&mut self) -> Result<(), usize> {
        if self.peek() != Some(b'"') {
            return Err(self.at);
        }
        self.at += 1;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(());
                }
                Some(b'\\') => self.at += 2,
                Some(_) => self.at += 1,
                None => return Err(self.at),
            }
        }
    }

    fn word(&mut self, w: &[u8]) -> Result<(), usize> {
        if self.doc[self.at..].starts_with(w) {
            self.at += w.len();
            Ok(())
        } else {
            Err(self.at)
        }
    }

    fn number(&mut self) -> Result<(), usize> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        if self.doc[start..self.at].iter().any(u8::is_ascii_digit) {
            Ok(())
        } else {
            Err(start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_is_fixed_and_recognized() {
        let doc = document();
        assert!(doc.len() >= DOC_BYTES);
        assert_eq!(doc, document());
        assert!(recognize(&doc).unwrap() > 1000);
        assert!(Calibration::new().sample() > 0.0);
    }

    #[test]
    fn the_recognizer_rejects_broken_json() {
        assert_eq!(
            recognize(br#"{"a": [1, -2.5e3, "x\"y", true, null]}"#),
            Ok(7)
        );
        assert!(recognize(br#"{"a" 1}"#).is_err());
        assert!(recognize(b"[1, 2").is_err());
        assert!(recognize(b"[1] x").is_err());
        assert!(recognize(b"\"open").is_err());
    }
}
