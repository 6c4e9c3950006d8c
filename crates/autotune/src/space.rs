//! Discrete parameter spaces with dependency constraints.
//!
//! A [`ParamSpace`] is an ordered list of named parameters, each with a finite
//! value list. A [`Config`] is one index per parameter. Dependency conditions
//! (READEX ATP §3.2.4: "which combinations of parameters are not allowed")
//! are arbitrary predicates over a configuration.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Integer-valued knob (tile size, thread count, node count, ...).
    Int(i64),
    /// Real-valued knob (power cap watts, threshold, ...).
    Float(f64),
    /// Categorical knob (solver name, policy name, ...).
    Str(String),
    /// Boolean knob (packing on/off, ...).
    Bool(bool),
}

impl ParamValue {
    /// The integer value.
    ///
    /// # Panics
    /// Panics if the value is not an `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            ParamValue::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// The float value (Ints coerce).
    ///
    /// # Panics
    /// Panics on `Str`/`Bool`.
    pub fn as_float(&self) -> f64 {
        match self {
            ParamValue::Float(v) => *v,
            // Grid values are small; precision loss above 2^53 cannot occur
            // for any space this workspace builds.
            ParamValue::Int(v) => *v as f64,
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    /// The string value.
    ///
    /// # Panics
    /// Panics if the value is not a `Str`.
    pub fn as_str(&self) -> &str {
        match self {
            ParamValue::Str(v) => v,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// The boolean value.
    ///
    /// # Panics
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            ParamValue::Bool(v) => *v,
            other => panic!("expected Bool, got {other:?}"),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One named parameter with its legal values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name, e.g. `"tile_i"`, `"power_cap_w"`, `"solver"`.
    pub name: String,
    /// Legal values, in a stable order (ordinal encoding uses the index).
    pub values: Vec<ParamValue>,
}

impl Param {
    /// Build a parameter.
    ///
    /// # Panics
    /// Panics on an empty value list.
    pub fn new(name: impl Into<String>, values: Vec<ParamValue>) -> Self {
        let name = name.into();
        assert!(!values.is_empty(), "parameter {name} has no values");
        Param { name, values }
    }

    /// Integer-valued parameter from a list.
    pub fn ints(name: impl Into<String>, values: impl IntoIterator<Item = i64>) -> Self {
        Param::new(name, values.into_iter().map(ParamValue::Int).collect())
    }

    /// Float-valued parameter from a list.
    pub fn floats(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        Param::new(name, values.into_iter().map(ParamValue::Float).collect())
    }

    /// Categorical parameter from a list of names.
    pub fn strs<S: Into<String>>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        Param::new(
            name,
            values
                .into_iter()
                .map(|s| ParamValue::Str(s.into()))
                .collect(),
        )
    }

    /// Boolean parameter.
    pub fn boolean(name: impl Into<String>) -> Self {
        Param::new(name, vec![ParamValue::Bool(false), ParamValue::Bool(true)])
    }
}

/// One configuration: a value index per parameter.
pub type Config = Vec<usize>;

type ConstraintFn = dyn Fn(&ParamSpace, &Config) -> bool + Send + Sync;

/// A named dependency constraint.
#[derive(Clone)]
struct Constraint {
    name: String,
    pred: Arc<ConstraintFn>,
}

/// A full parameter space.
///
/// # Example
///
/// ```
/// use pstack_autotune::{Param, ParamSpace};
///
/// let space = ParamSpace::new()
///     .with(Param::ints("threads", [1, 2, 4, 8]))
///     .with(Param::strs("solver", ["pcg", "gmres"]))
///     .with_constraint("gmres needs >=2 threads", |s, c| {
///         s.value(c, "solver").as_str() != "gmres"
///             || s.value(c, "threads").as_int() >= 2
///     });
/// assert_eq!(space.cardinality(), 8);
/// assert_eq!(space.enumerate().count(), 7); // (1 thread, gmres) excluded
/// ```
#[derive(Clone, Default)]
pub struct ParamSpace {
    params: Vec<Param>,
    constraints: Vec<Constraint>,
}

impl fmt::Debug for ParamSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParamSpace")
            .field("params", &self.params)
            .field(
                "constraints",
                &self
                    .constraints
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ParamSpace {
    /// Empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a parameter; returns `self` for chaining.
    pub fn with(mut self, param: Param) -> Self {
        assert!(
            !self.params.iter().any(|p| p.name == param.name),
            "duplicate parameter name {}",
            param.name
        );
        self.params.push(param);
        self
    }

    /// Add a dependency constraint. A configuration is valid only if every
    /// constraint returns `true`.
    pub fn with_constraint(
        mut self,
        name: impl Into<String>,
        pred: impl Fn(&ParamSpace, &Config) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Constraint {
            name: name.into(),
            pred: Arc::new(pred),
        });
        self
    }

    /// The parameters, in order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Number of parameters (the dimensionality).
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// Index of the parameter named `name`.
    ///
    /// # Panics
    /// Panics on an unknown name.
    pub fn index_of(&self, name: &str) -> usize {
        self.params
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
    }

    /// The value a configuration assigns to parameter `name`.
    pub fn value<'a>(&'a self, cfg: &Config, name: &str) -> &'a ParamValue {
        let i = self.index_of(name);
        &self.params[i].values[cfg[i]]
    }

    /// Total lattice size ignoring constraints.
    pub fn cardinality(&self) -> u128 {
        self.params.iter().map(|p| p.values.len() as u128).product()
    }

    /// Whether `cfg` is inside the lattice and passes all constraints.
    pub fn is_valid(&self, cfg: &Config) -> bool {
        cfg.len() == self.params.len()
            && cfg
                .iter()
                .zip(&self.params)
                .all(|(&i, p)| i < p.values.len())
            && self.constraints.iter().all(|c| (c.pred)(self, cfg))
    }

    /// Names of all constraints, in declaration order (the predicates are
    /// opaque closures; the names are the portable identity used by
    /// fingerprints and the shared history store).
    pub fn constraint_names(&self) -> Vec<&str> {
        self.constraints.iter().map(|c| c.name.as_str()).collect()
    }

    /// Names of constraints `cfg` violates (empty when valid).
    pub fn violations(&self, cfg: &Config) -> Vec<&str> {
        self.constraints
            .iter()
            .filter(|c| !(c.pred)(self, cfg))
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Sample a uniform random *valid* configuration by rejection.
    ///
    /// # Panics
    /// Panics after 10 000 rejected draws — the constraint set is then so
    /// tight that rejection sampling is the wrong tool.
    pub fn sample(&self, rng: &mut SmallRng) -> Config {
        assert!(!self.params.is_empty(), "empty space");
        for _ in 0..10_000 {
            let cfg: Config = self
                .params
                .iter()
                .map(|p| rng.gen_range(0..p.values.len()))
                .collect();
            if self.is_valid(&cfg) {
                return cfg;
            }
        }
        panic!("rejection sampling failed: constraints too tight");
    }

    /// All valid neighbours of `cfg` at Hamming distance 1.
    pub fn neighbors(&self, cfg: &Config) -> Vec<Config> {
        let mut out = Vec::new();
        for (i, p) in self.params.iter().enumerate() {
            for v in 0..p.values.len() {
                if v != cfg[i] {
                    let mut n = cfg.clone();
                    n[i] = v;
                    if self.is_valid(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    }

    /// Iterate the full lattice, yielding only valid configurations.
    pub fn enumerate(&self) -> impl Iterator<Item = Config> + '_ {
        LatticeIter {
            space: self,
            next: Some(vec![0; self.params.len()]),
        }
        .filter(|c| self.is_valid(c))
    }

    /// Ordinal encoding of a configuration (for surrogate models): each
    /// parameter mapped to its value index normalized to `[0, 1]`.
    pub fn encode(&self, cfg: &Config) -> Vec<f64> {
        let mut out = Vec::with_capacity(cfg.len());
        self.encode_into(cfg, &mut out);
        out
    }

    /// Append [`encode`](Self::encode)'s values to `out`.
    pub(crate) fn encode_into(&self, cfg: &Config, out: &mut Vec<f64>) {
        out.extend(cfg.iter().zip(&self.params).map(|(&i, p)| {
            if p.values.len() == 1 {
                0.0
            } else {
                i as f64 / (p.values.len() - 1) as f64
            }
        }));
    }

    /// Stable 16-hex-digit fingerprint of the space's *shape*: parameter
    /// names and value lists plus constraint names (predicates are opaque
    /// closures, so their names stand in for them). Checkpoint resume
    /// compares this to reject resuming a session against a different
    /// space, where replayed configuration indices would silently mean
    /// different knob values.
    pub fn fingerprint(&self) -> String {
        let mut canon = String::new();
        for p in &self.params {
            canon.push_str(&p.name);
            canon.push('=');
            for v in &p.values {
                canon.push_str(&format!("{v:?}"));
                canon.push(',');
            }
            canon.push(';');
        }
        canon.push('|');
        for c in &self.constraints {
            canon.push_str(&c.name);
            canon.push(';');
        }
        format!("{:016x}", pstack_trace::hash64(canon.as_bytes()))
    }

    /// Render a configuration as `name=value` pairs.
    pub fn describe(&self, cfg: &Config) -> String {
        cfg.iter()
            .zip(&self.params)
            .map(|(&i, p)| format!("{}={}", p.name, p.values[i]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

struct LatticeIter<'a> {
    space: &'a ParamSpace,
    next: Option<Config>,
}

impl Iterator for LatticeIter<'_> {
    type Item = Config;

    fn next(&mut self) -> Option<Config> {
        let current = self.next.take()?;
        // Compute successor (odometer increment).
        let mut succ = current.clone();
        let mut i = succ.len();
        loop {
            if i == 0 {
                self.next = None;
                break;
            }
            i -= 1;
            succ[i] += 1;
            if succ[i] < self.space.params[i].values.len() {
                self.next = Some(succ);
                break;
            }
            succ[i] = 0;
        }
        if current.is_empty() {
            // Zero-dimensional space: yield nothing.
            return None;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_sim_for_tests::seed_rng;

    /// Tiny local shim so tests get deterministic RNGs without a dependency.
    mod pstack_sim_for_tests {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        pub fn seed_rng(seed: u64) -> SmallRng {
            SmallRng::seed_from_u64(seed)
        }
    }

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("tile", [4, 8, 16, 32]))
            .with(Param::ints("unroll", [1, 2, 4]))
            .with(Param::strs("solver", ["pcg", "gmres"]))
            .with_constraint("unroll<=tile", |s, c| {
                s.value(c, "unroll").as_int() <= s.value(c, "tile").as_int()
            })
    }

    #[test]
    fn cardinality_and_dims() {
        let s = space();
        assert_eq!(s.dims(), 3);
        assert_eq!(s.cardinality(), 4 * 3 * 2);
    }

    #[test]
    fn validity_and_violations() {
        let s = space();
        let ok = vec![1, 1, 0]; // tile=8, unroll=2
        assert!(s.is_valid(&ok));
        assert!(s.violations(&ok).is_empty());
        // tile=4, unroll=4 → 4<=4 ok; tile index 0, unroll index 2.
        assert!(s.is_valid(&vec![0, 2, 0]));
        // Out-of-lattice index invalid.
        assert!(!s.is_valid(&vec![9, 0, 0]));
        // Wrong arity invalid.
        assert!(!s.is_valid(&vec![0, 0]));
    }

    #[test]
    fn constraint_blocks_configs() {
        let s = ParamSpace::new()
            .with(Param::ints("a", [1, 2]))
            .with(Param::ints("b", [1, 2]))
            .with_constraint("a!=b", |s, c| {
                s.value(c, "a").as_int() != s.value(c, "b").as_int()
            });
        assert!(!s.is_valid(&vec![0, 0]));
        assert!(s.is_valid(&vec![0, 1]));
        assert_eq!(s.violations(&vec![1, 1]), vec!["a!=b"]);
        assert_eq!(s.enumerate().count(), 2);
    }

    #[test]
    fn sampling_respects_constraints() {
        let s = space();
        let mut rng = seed_rng(1);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            assert!(s.is_valid(&c));
        }
    }

    #[test]
    fn neighbors_are_valid_distance_one() {
        let s = space();
        let c = vec![1, 1, 0];
        let ns = s.neighbors(&c);
        assert!(!ns.is_empty());
        for n in &ns {
            assert!(s.is_valid(n));
            let dist: usize = n.iter().zip(&c).filter(|(a, b)| a != b).count();
            assert_eq!(dist, 1);
        }
    }

    #[test]
    fn enumerate_visits_all_valid() {
        let s = space();
        let all: Vec<Config> = s.enumerate().collect();
        // tile=4 excludes unroll>4? unroll values 1,2,4 all <= 4 → all 24 valid.
        assert_eq!(all.len(), 24);
        // Uniqueness.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn encode_normalizes() {
        let s = space();
        assert_eq!(s.encode(&vec![0, 0, 0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(s.encode(&vec![3, 2, 1]), vec![1.0, 1.0, 1.0]);
        let mid = s.encode(&vec![1, 1, 0]);
        assert!((mid[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn describe_renders_values() {
        let s = space();
        assert_eq!(s.describe(&vec![1, 2, 1]), "tile=8 unroll=4 solver=gmres");
    }

    #[test]
    fn fingerprint_tracks_shape_not_predicates() {
        let a = space();
        let b = space();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same shape, same print");
        assert_eq!(a.fingerprint().len(), 16);
        let wider = space().with(Param::boolean("fused"));
        assert_ne!(a.fingerprint(), wider.fingerprint());
        let renamed_constraint = ParamSpace::new()
            .with(Param::ints("tile", [4, 8, 16, 32]))
            .with(Param::ints("unroll", [1, 2, 4]))
            .with(Param::strs("solver", ["pcg", "gmres"]))
            .with_constraint("different name", |_, _| true);
        assert_ne!(a.fingerprint(), renamed_constraint.fingerprint());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        ParamSpace::new()
            .with(Param::ints("a", [1]))
            .with(Param::ints("a", [2]));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(ParamValue::Int(4).as_int(), 4);
        assert_eq!(ParamValue::Int(4).as_float(), 4.0);
        assert_eq!(ParamValue::Float(2.5).as_float(), 2.5);
        assert_eq!(ParamValue::Str("x".into()).as_str(), "x");
        assert!(ParamValue::Bool(true).as_bool());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        ParamValue::Bool(true).as_int();
    }
}
