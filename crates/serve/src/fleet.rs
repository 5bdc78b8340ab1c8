//! The model zoo a server instance exposes as tenants.
//!
//! A [`FleetConfig`] names each tenant, fixes the zoo network it serves
//! (`tiny_epitome_network(stem, mid, classes)` with a deterministic
//! weight seed) and carries its scheduler knobs. Because weights come
//! from [`NetworkWeights::random`] with a pinned seed and the analog
//! model is fixed, any two processes that build the same `FleetConfig`
//! serve **bit-identical** tenants — which is what lets the load
//! generator's `--check` mode (and the loopback tests) compare wire
//! outputs against an in-process fleet with exact-0 tolerance.
//!
//! Configs come from [`FleetConfig::default_zoo`] or from a TOML-subset
//! file ([`FleetConfig::parse`]); the workspace vendors no TOML crate, so
//! the parser accepts exactly the flat `key = value` / `[[tenant]]`
//! shape this module documents, and nothing more.

use epim_models::lower::NetworkWeights;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig};
use std::time::Duration;

/// The input image side length every zoo tenant is lowered for.
pub const INPUT_SIDE: usize = 16;

/// The input tensor shape (NCHW) every zoo tenant expects.
pub const INPUT_SHAPE: [usize; 4] = [1, 3, INPUT_SIDE, INPUT_SIDE];

/// The pinned analog model shared by every fleet build (server, load
/// generator, tests, bench) — changing it anywhere breaks wire/in-process
/// bit-identity, so it is defined exactly once, here.
pub fn analog() -> AnalogModel {
    AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    }
}

/// One tenant: a zoo network, its deterministic weight seed and its
/// scheduler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Wire-visible tenant name.
    pub name: String,
    /// Zoo backbone stem width.
    pub stem: usize,
    /// Zoo backbone inner width (equal `mid` ⇒ shared compiled plan).
    pub mid: usize,
    /// Classifier width.
    pub classes: usize,
    /// Seed for [`NetworkWeights::random`].
    pub seed: u64,
    /// Most requests coalesced into one executed batch.
    pub max_batch: usize,
    /// Batch coalescing window in milliseconds: an upper bound on the
    /// hold; the scheduler waits at most the tenant's measured service
    /// time, and not at all when that is below what a timed wait can
    /// resolve (`epim_runtime::TenantConfig::batch_window`).
    pub batch_window_ms: u64,
    /// Bounded submission-queue capacity. The wire path submits through
    /// the non-waiting `try_infer`, so a full queue sheds into a typed
    /// `overloaded` error frame.
    pub queue_capacity: usize,
}

impl TenantSpec {
    /// A tenant spec with the default scheduler knobs.
    pub fn new(name: &str, stem: usize, mid: usize, classes: usize, seed: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            stem,
            mid,
            classes,
            seed,
            max_batch: 8,
            batch_window_ms: 1,
            queue_capacity: 64,
        }
    }

    fn tenant_config(&self) -> TenantConfig {
        TenantConfig {
            max_batch: self.max_batch,
            batch_window: Duration::from_millis(self.batch_window_ms),
            queue_capacity: self.queue_capacity,
        }
    }
}

/// The full fleet a server instance exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Scheduler worker threads shared by all tenants.
    pub workers: usize,
    /// The tenants, in registration (and wire-listing) order.
    pub tenants: Vec<TenantSpec>,
}

impl FleetConfig {
    /// The default three-tenant zoo: two distinct plans plus a third
    /// tenant sharing tenant zero's compiled plan (equal `mid`), so the
    /// default fleet exercises both plan-cache sharing and genuine
    /// multi-plan tenancy.
    pub fn default_zoo() -> Self {
        FleetConfig {
            workers: 2,
            tenants: vec![
                TenantSpec::new("resnet-a", 8, 4, 10, 11),
                TenantSpec::new("resnet-b", 8, 8, 12, 22),
                TenantSpec::new("resnet-c", 8, 4, 16, 33),
            ],
        }
    }

    /// Parses the TOML-subset fleet file: optional top-level
    /// `workers = N`, then one `[[tenant]]` section per tenant with
    /// `name` (string, required) and optional integer keys `stem`,
    /// `mid`, `classes`, `seed`, `max_batch`, `batch_window_ms`,
    /// `queue_capacity`. `#` starts a comment outside the quotes of a
    /// `name`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] naming the offending line for
    /// anything outside that grammar, a duplicate or missing tenant
    /// name, or an empty fleet.
    pub fn parse(text: &str) -> Result<Self, RuntimeError> {
        let bad = |what: String| RuntimeError::InvalidConfig { what };
        let mut cfg = FleetConfig {
            workers: 2,
            tenants: Vec::new(),
        };
        let mut current: Option<TenantSpec> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[tenant]]" {
                if let Some(t) = current.take() {
                    cfg.tenants.push(t);
                }
                current = Some(TenantSpec::new("", 8, 4, 10, 0));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("fleet config line {}: `{line}`", lineno + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            let int = |v: &str| {
                v.parse::<u64>().map_err(|_| {
                    bad(format!(
                        "fleet config line {}: `{key}` wants an integer",
                        lineno + 1
                    ))
                })
            };
            match (&mut current, key) {
                (None, "workers") => cfg.workers = int(value)?.max(1) as usize,
                (None, other) => {
                    return Err(bad(format!(
                        "fleet config line {}: unknown top-level key `{other}`",
                        lineno + 1
                    )))
                }
                (Some(t), "name") => {
                    let quoted = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .filter(|v| !v.contains('"'));
                    let Some(v) = quoted else {
                        return Err(bad(format!(
                            "fleet config line {}: `name` wants a quoted string",
                            lineno + 1
                        )));
                    };
                    t.name = v.to_string();
                }
                (Some(t), "stem") => t.stem = int(value)? as usize,
                (Some(t), "mid") => t.mid = int(value)? as usize,
                (Some(t), "classes") => t.classes = int(value)? as usize,
                (Some(t), "seed") => t.seed = int(value)?,
                (Some(t), "max_batch") => t.max_batch = int(value)? as usize,
                (Some(t), "batch_window_ms") => t.batch_window_ms = int(value)?,
                (Some(t), "queue_capacity") => t.queue_capacity = int(value)? as usize,
                (Some(_), other) => {
                    return Err(bad(format!(
                        "fleet config line {}: unknown tenant key `{other}`",
                        lineno + 1
                    )))
                }
            }
        }
        if let Some(t) = current.take() {
            cfg.tenants.push(t);
        }
        if cfg.tenants.is_empty() {
            return Err(bad("fleet config declares no tenants".to_string()));
        }
        let mut seen = std::collections::HashSet::new();
        for t in &cfg.tenants {
            if t.name.is_empty() {
                return Err(bad("a [[tenant]] section is missing `name`".to_string()));
            }
            if !seen.insert(t.name.clone()) {
                return Err(bad(format!("duplicate tenant name `{}`", t.name)));
            }
        }
        Ok(cfg)
    }

    /// Builds the fleet: one [`MultiEngine`] with every tenant
    /// registered, weights deterministically seeded.
    ///
    /// # Errors
    ///
    /// Propagates zoo design, lowering and registration errors.
    pub fn build(&self) -> Result<MultiEngine, RuntimeError> {
        let cache = PlanCache::new();
        let mut builder = MultiEngine::builder(&cache).workers(self.workers);
        for spec in &self.tenants {
            let (net, _) =
                zoo::tiny_epitome_network(spec.stem, spec.mid, spec.classes).map_err(|e| {
                    RuntimeError::InvalidConfig {
                        what: format!("tenant `{}`: {e}", spec.name),
                    }
                })?;
            let weights = NetworkWeights::random(&net, spec.seed).map_err(|e| {
                RuntimeError::InvalidConfig {
                    what: format!("tenant `{}`: {e}", spec.name),
                }
            })?;
            builder.register(
                &spec.name,
                &net,
                &weights,
                (INPUT_SIDE, INPUT_SIDE),
                true,
                analog(),
                spec.tenant_config(),
            )?;
        }
        builder.build()
    }
}

/// `line` up to its first `#` outside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut quoted = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            '#' if !quoted => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_zoo_builds_and_names_tenants() {
        let cfg = FleetConfig::default_zoo();
        let fleet = cfg.build().unwrap();
        assert_eq!(
            fleet.tenant_names(),
            &["resnet-a", "resnet-b", "resnet-c"],
            "wire-visible names must match registration order"
        );
        // The 16×16 nets sit two orders of magnitude below the kernels'
        // parallel thresholds, so no zoo group ever splits into
        // sub-batches, whatever the pool width.
        for name in fleet.tenant_names() {
            let plan = fleet.plan(fleet.tenant_id(name).unwrap()).unwrap();
            assert!((1..=64).all(|g| plan.sub_batches(g) == 1), "{name} split");
        }
    }

    #[test]
    fn parse_roundtrips_the_documented_grammar() {
        let cfg = FleetConfig::parse(
            r#"
            # serving fleet
            workers = 3

            [[tenant]]
            name = "a"
            stem = 8
            mid = 4
            classes = 10
            seed = 7
            max_batch = 4
            batch_window_ms = 2
            queue_capacity = 16

            [[tenant]]
            name = "b"  # trailing comment
            mid = 8
            seed = 9
            "#,
        )
        .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].name, "a");
        assert_eq!(cfg.tenants[0].queue_capacity, 16);
        assert_eq!(cfg.tenants[1].name, "b");
        assert_eq!(cfg.tenants[1].mid, 8);
    }

    #[test]
    fn a_quoted_name_keeps_its_hash() {
        let cfg = FleetConfig::parse("[[tenant]]\nname = \"a#b\"  # comment").unwrap();
        assert_eq!(cfg.tenants[0].name, "a#b");
    }

    #[test]
    fn an_unterminated_name_is_rejected_on_its_line() {
        for text in [
            "[[tenant]]\nname = \"abc",
            "[[tenant]]\nname = \"abc # no closing quote",
            "[[tenant]]\nname = \"",
        ] {
            let err = FleetConfig::parse(text).unwrap_err();
            assert!(err.to_string().contains("line 2"), "{text:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_bad_configs() {
        for (text, why) in [
            ("workers = 2", "no tenants"),
            ("[[tenant]]\nstem = 8", "missing name"),
            ("[[tenant]]\nname = \"a\"\n[[tenant]]\nname = \"a\"", "dup"),
            ("[[tenant]]\nname = a", "unquoted string"),
            ("[[tenant]]\nname = \"a\"\nbogus = 1", "unknown key"),
            ("nonsense", "not an assignment"),
            ("[[tenant]]\nname = \"a\"\nmid = x", "non-integer"),
        ] {
            let err = FleetConfig::parse(text).unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidConfig { .. }),
                "{why}: {err:?}"
            );
        }
    }
}
