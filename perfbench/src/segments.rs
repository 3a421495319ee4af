//! Per-segment timing of a pass, and the contention-filtered pass time
//! built from it.
//!
//! On a shared host a pass's speed swings by tens of percent within
//! seconds, as other tenants come and go. A whole-pass figure, fastest
//! or median, then depends on how the run's passes fell against those
//! swings. [`Tap`] wraps the dump reader handed to the check and notes
//! the wall and CPU time each time another [`SEGMENT`] bytes of the
//! dump are consumed, splitting every pass at the same byte offsets.
//! [`fastest_segments`] adds up, segment by segment, the fastest time
//! any pass of the run took for it: what one pass would take if each
//! part of it had run at the host's quietest.

use std::io::{self, BufRead, Read};
use std::time::{Duration, Instant};

use crate::sys;

/// Dump bytes per timed segment.
pub const SEGMENT: u64 = 32 * 1024;

/// Wall and CPU time since the pass began, at one segment boundary.
#[derive(Clone, Copy)]
pub struct Mark {
    pub wall: Duration,
    pub cpu: Duration,
}

/// A pass's clock: its start, and the marks taken so far.
pub struct Clock {
    t0: Instant,
    cpu0: Duration,
    pub marks: Vec<Mark>,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            cpu0: sys::cpu_time(),
            t0: Instant::now(),
            marks: Vec::new(),
        }
    }

    pub fn mark(&mut self) {
        let wall = self.t0.elapsed();
        let cpu = sys::cpu_time().saturating_sub(self.cpu0);
        self.marks.push(Mark { wall, cpu });
    }
}

/// A `BufRead` that marks `clock` at every [`SEGMENT`] bytes the
/// reader's consumer takes from `inner`.
pub struct Tap<'c, R> {
    inner: R,
    clock: &'c mut Clock,
    pos: u64,
    next: u64,
}

impl<'c, R> Tap<'c, R> {
    pub fn new(inner: R, clock: &'c mut Clock) -> Self {
        Tap {
            inner,
            clock,
            pos: 0,
            next: SEGMENT,
        }
    }

    fn advance(&mut self, n: usize) {
        self.pos += n as u64;
        while self.pos >= self.next {
            self.clock.mark();
            self.next += SEGMENT;
        }
    }
}

impl<R: Read> Read for Tap<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.advance(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Tap<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
        self.advance(amt);
    }
}

/// The fastest time of each segment over `passes`, summed: `(wall,
/// cpu)` in seconds. Every pass is its marks, the last one taken when
/// the pass ended; all passes must have the same number of marks.
pub fn fastest_segments(passes: &[Vec<Mark>]) -> Result<(f64, f64), String> {
    let n = passes.first().map_or(0, Vec::len);
    if n == 0 || passes.iter().any(|p| p.len() != n) {
        return Err("passes were split into different segments".to_owned());
    }
    let mut wall = 0.0;
    let mut cpu = 0.0;
    for j in 0..n {
        let segment = |p: &Vec<Mark>, f: fn(&Mark) -> Duration| {
            let start = if j == 0 { Duration::ZERO } else { f(&p[j - 1]) };
            f(&p[j]).saturating_sub(start).as_secs_f64()
        };
        let fastest = |f: fn(&Mark) -> Duration| {
            passes
                .iter()
                .map(|p| segment(p, f))
                .fold(f64::INFINITY, f64::min)
        };
        wall += fastest(|m| m.wall);
        cpu += fastest(|m| m.cpu);
    }
    Ok((wall, cpu))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(marks: &[(u64, u64)]) -> Vec<Mark> {
        marks
            .iter()
            .map(|&(w, c)| Mark {
                wall: Duration::from_millis(w),
                cpu: Duration::from_millis(c),
            })
            .collect()
    }

    #[test]
    fn sums_the_fastest_time_of_each_segment() {
        // segments (wall): pass a 10, 30, 10; pass b 20, 10, 20
        let a = pass(&[(10, 9), (40, 38), (50, 48)]);
        let b = pass(&[(20, 19), (30, 28), (50, 47)]);
        let (wall, cpu) = fastest_segments(&[a, b]).unwrap();
        assert!((wall - 0.030).abs() < 1e-12);
        assert!((cpu - 0.028).abs() < 1e-12);
    }

    #[test]
    fn taps_every_segment_boundary() {
        let bytes = vec![b'x'; 3 * SEGMENT as usize + 5];
        let mut clock = Clock::start();
        let mut tap = Tap::new(std::io::BufReader::new(&bytes[..]), &mut clock);
        let mut sink = Vec::new();
        tap.read_to_end(&mut sink).unwrap();
        assert_eq!(sink.len(), bytes.len());
        assert_eq!(clock.marks.len(), 3);
    }

    #[test]
    fn refuses_passes_split_differently() {
        let a = pass(&[(10, 10), (20, 20)]);
        let b = pass(&[(10, 10)]);
        assert!(fastest_segments(&[a, b]).is_err());
    }
}
