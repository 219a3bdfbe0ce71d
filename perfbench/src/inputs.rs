//! Seeded inputs: the demo suite, its request lines, and the random
//! streams (orders, draws, angles) every workload derives from `--seed`.

use reqisc_compiler::Pipeline;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::Json;

/// SplitMix64: a small, fast, fully deterministic generator. The
/// benchmark owns its generator so its streams never shift when the
/// repository's `rand` stand-in changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `salt` of `seed`: each use of randomness (order, draw,
    /// angles, states) gets its own stream, so adding one never shifts
    /// another.
    pub fn stream(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit(); // (0, 1]
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Stream salts, one per use.
pub mod salt {
    /// Program order of the cold suite.
    pub const ORDER: u64 = 1;
    /// Warm-phase line draw.
    pub const WARM: u64 = 2;
    /// First-touch key order.
    pub const FIRST_TOUCH: u64 = 3;
    /// Trailing-rotation angles of the cold variants.
    pub const ANGLES: u64 = 4;
    /// Oracle input states.
    pub const STATES: u64 = 5;
}

/// A uniformly shuffled `0..n` (Fisher–Yates).
pub fn shuffled_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// `count` indices drawn uniformly, with replacement, from `0..n`.
pub fn uniform_draw(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    (0..count).map(|_| rng.below(n)).collect()
}

/// One angle per cold variant, in `[0.1, π − 0.1)`: far from the
/// identity, so the trailing rotation never cancels.
pub fn cold_angles(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n)
        .map(|_| 0.1 + rng.unit() * (std::f64::consts::PI - 0.2))
        .collect()
}

/// The 132-program demo suite, in the suite's own order.
pub fn demo_suite() -> Vec<Circuit> {
    reqisc_benchsuite::suite(reqisc_benchsuite::Scale::Demo)
        .into_iter()
        .map(|b| b.circuit)
        .collect()
}

/// `program` made never-seen: a trailing `rz` on one added, otherwise
/// idle qubit. No two-qubit gate touches that qubit, so the variant's
/// blocks, and with them its synthesis work, are the program's own; an
/// `rz` on a used qubit changes the last block there, and with it a
/// search whose cost then depends on the angle.
pub fn cold_variant(program: &Circuit, theta: f64) -> Circuit {
    let n = program.num_qubits();
    let mut c = Circuit::from_gates(n + 1, program.gates().to_vec());
    c.push(Gate::Rz(n, theta));
    c
}

/// One compile request line, as a client sends it: the program as
/// QASM-lite, so the daemon parses and hashes it like any other caller's.
#[derive(Debug, Clone)]
pub struct Line {
    /// The JSON request, without the trailing newline.
    pub text: String,
    /// The request's cache key as the daemon computes it: the content
    /// hash of the circuit parsed back from the QASM, and the pipeline.
    pub key: (u128, Pipeline),
}

impl Line {
    /// The compile request for `program` through `pipeline`.
    pub fn compile(id: u64, pipeline: Pipeline, program: &Circuit) -> Line {
        let qasm = reqisc_qcircuit::emit(program);
        let parsed = reqisc_qcircuit::parse(&qasm).expect("emitted QASM parses back");
        let text = Json::obj(vec![
            ("id", Json::num_u64(id)),
            ("op", Json::str("compile")),
            ("pipeline", Json::str(pipeline.name())),
            ("qasm", Json::str(qasm)),
        ])
        .emit();
        Line {
            text,
            key: (parsed.content_hash(), pipeline),
        }
    }
}

/// The suite × `pipelines` request lines, program-major, ids from 1.
pub fn suite_lines(suite: &[Circuit], pipelines: &[Pipeline]) -> Vec<Line> {
    let mut lines = Vec::with_capacity(suite.len() * pipelines.len());
    for program in suite {
        for &p in pipelines {
            lines.push(Line::compile(lines.len() as u64 + 1, p, program));
        }
    }
    lines
}

/// Index of the first line of every distinct key, in line order.
pub fn distinct_keys(lines: &[Line]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..lines.len())
        .filter(|&i| seen.insert(lines[i].key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed, s| uniform_draw(264, 500, &mut Rng::stream(seed, s));
        assert_eq!(draw(7, salt::WARM), draw(7, salt::WARM));
        assert_ne!(draw(7, salt::WARM), draw(8, salt::WARM));
        // Streams of one seed are independent of each other.
        assert_ne!(draw(7, salt::WARM), draw(7, salt::FIRST_TOUCH));

        let order = |seed| shuffled_order(132, &mut Rng::stream(seed, salt::ORDER));
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));

        let angles = |seed| cold_angles(132, &mut Rng::stream(seed, salt::ANGLES));
        assert_eq!(angles(3), angles(3));
        assert_ne!(angles(3), angles(4));
    }

    #[test]
    fn streams_stay_in_range() {
        let mut rng = Rng::stream(11, salt::ORDER);
        let mut order = shuffled_order(132, &mut rng);
        order.sort_unstable();
        assert_eq!(
            order,
            (0..132).collect::<Vec<_>>(),
            "an order is a permutation"
        );
        assert!(uniform_draw(396, 10_000, &mut rng).iter().all(|&i| i < 396));
        let angles = cold_angles(1000, &mut rng);
        assert!(angles
            .iter()
            .all(|t| (0.1..std::f64::consts::PI - 0.1).contains(t)));
        // Every line gets drawn: the draw is not stuck on a sub-range.
        let mut hit = [false; 264];
        for i in uniform_draw(264, 20_000, &mut rng) {
            hit[i] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn lines_carry_the_daemon_side_key() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::H(1));
        let suite = vec![c.clone(), c.clone(), cold_variant(&c, 0.5)];
        let lines = suite_lines(&suite, &[Pipeline::Qiskit, Pipeline::Tket]);
        assert_eq!(lines.len(), 6);
        // Duplicate programs share keys; the cold variant does not.
        assert_eq!(distinct_keys(&lines), vec![0, 1, 4, 5]);
        assert_eq!(lines[0].key.0, c.content_hash());
        assert!(lines[0].text.starts_with("{\"id\":1,"));
        // The variant only adds an idle qubit with one rotation.
        let v = cold_variant(&c, 0.5);
        assert_eq!(v.num_qubits(), 4);
        assert_eq!(&v.gates()[..2], c.gates());
        assert_eq!(v.gates()[2], Gate::Rz(3, 0.5));
    }
}
