//! The compiled-plan cache.
//!
//! `DataPath` construction has two parts: compiling the IFAT/IFRT/OFAT
//! tables and per-round word-line lists (a function of the
//! [`EpitomeSpec`] alone), and programming the crossbar matrix (a function
//! of the epitome's tensor values and the [`AnalogModel`]). [`PlanCache`]
//! memoizes the first part — one [`CompiledPlan`] per spec, shared behind
//! an [`Arc`] — so rebuilding a fleet, serving the same layer shape in
//! several networks, or re-programming a layer with new weights/noise only
//! pays for the matrix.
//!
//! The cache key is the spec itself (serialized: the vendored `serde`
//! stand-in has no `Hash` derive, and the canonical JSON doubles as a
//! stable, collision-free identity for `(conv, epitome shape, sampling
//! plan)`). The analog model is deliberately *not* part of the key: it
//! never influences the tables, and keying on it would only manufacture
//! misses — it parameterizes `DataPath::with_plan` instead.

use crate::RuntimeError;
use epim_core::{Epitome, EpitomeSpec};
use epim_models::network::Network;
use epim_pim::datapath::{AnalogModel, CompiledPlan, DataPath};
use epim_tensor::ops::Conv2dCfg;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Hit/miss counters and current size of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// A thread-safe memo table `EpitomeSpec -> Arc<CompiledPlan>`.
///
/// `PlanCache` is a cheaply cloneable *handle*: clones share one
/// underlying table (and its hit/miss counters), which is how a
/// `MultiEngine` keeps a view of the cache it was built from and surfaces
/// its counters in its `RuntimeStats`.
///
/// # Example
///
/// ```
/// use epim_core::{ConvShape, EpitomeShape, EpitomeSpec};
/// use epim_runtime::PlanCache;
///
/// let cache = PlanCache::new();
/// let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2))?;
/// let a = cache.get_or_compile(&spec)?;
/// let b = cache.clone().get_or_compile(&spec)?; // clones share the table
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    plans: HashMap<String, Arc<CompiledPlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the compiled plan for `spec`, compiling and caching it on
    /// first sight.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pim`] if plan compilation fails (the spec's
    /// sampling plan does not verify).
    pub fn get_or_compile(&self, spec: &EpitomeSpec) -> Result<Arc<CompiledPlan>, RuntimeError> {
        let key = serde_json::to_string(spec)
            .map_err(|e| RuntimeError::config(format!("unserializable spec key: {e}")))?;
        // Fast path under the lock; compilation happens outside it so a
        // slow compile doesn't serialize unrelated lookups.
        {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            if let Some(plan) = inner.plans.get(&key) {
                let plan = plan.clone();
                inner.hits += 1;
                return Ok(plan);
            }
        }
        let compiled = Arc::new(CompiledPlan::compile(spec)?);
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        // A racing thread may have compiled the same spec; keep the first.
        let plan = inner.plans.entry(key).or_insert_with(|| compiled).clone();
        inner.misses += 1;
        Ok(plan)
    }

    /// Builds a [`DataPath`] for `epitome`, reusing the cached plan for its
    /// spec — the cache-aware replacement for `DataPath::with_analog`.
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation and data-path construction errors.
    pub fn datapath(
        &self,
        epitome: &Epitome,
        conv_cfg: Conv2dCfg,
        wrapping_enabled: bool,
        analog: AnalogModel,
    ) -> Result<DataPath, RuntimeError> {
        let plan = self.get_or_compile(epitome.spec())?;
        Ok(DataPath::with_plan(
            plan,
            epitome,
            conv_cfg,
            wrapping_enabled,
            analog,
        )?)
    }

    /// Compiles (or re-uses) the plan of every epitome choice in `network`,
    /// returning one `(layer index, plan)` pair per epitome layer. Layers
    /// sharing a spec share one plan allocation.
    ///
    /// # Errors
    ///
    /// Propagates the first compilation failure.
    pub fn warm_network(
        &self,
        network: &Network,
    ) -> Result<Vec<(usize, Arc<CompiledPlan>)>, RuntimeError> {
        network
            .epitome_specs()
            .map(|(i, spec)| Ok((i, self.get_or_compile(spec)?)))
            .collect()
    }

    /// Current hit/miss counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache poisoned");
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.plans.len(),
        }
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .plans
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, EpitomeShape};

    fn spec(cout_e: usize) -> EpitomeSpec {
        EpitomeSpec::new(
            ConvShape::new(8, 4, 3, 3),
            EpitomeShape::new(cout_e, 4, 2, 2),
        )
        .unwrap()
    }

    #[test]
    fn caches_by_spec_identity() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&spec(4)).unwrap();
        let b = cache.get_or_compile(&spec(4)).unwrap();
        let c = cache.get_or_compile(&spec(8)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = PlanCache::new();
        cache.get_or_compile(&spec(4)).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
        // Recompiling after clear is a miss again.
        cache.get_or_compile(&spec(4)).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
