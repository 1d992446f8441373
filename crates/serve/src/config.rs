//! Serving configuration, assembled builder-style.

use crate::error::ServeError;
use mmhand_core::Precision;
use mmhand_kernels::BackendChoice;

/// What to do about mesh reconstruction under load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshPolicy {
    /// Reconstruct a mesh for every segment.
    Always,
    /// Skeletons only; never reconstruct meshes.
    Never,
    /// Graceful degradation: skip the mesh for a session whenever its
    /// ingress queue still holds at least this many un-processed whole
    /// segments after the current batch was taken — latency is spent on
    /// catching up instead of on vertices.
    SkipWhenBacklogged {
        /// Backlog threshold in whole segments.
        segments: usize,
    },
}

/// The typed inference knob: everything that selects *how* the engine
/// computes — numeric precision, mesh policy, kernel backend — in one
/// place, carried by [`ServeConfig`], consumed by the engine, the sharded
/// router, and the wire `Hello` negotiation.
///
/// This replaces the previous scattering of per-call choices and env-var
/// overrides: `MMHAND_PRECISION` and `MMHAND_KERNEL_BACKEND` remain as
/// documented *fallbacks* that fill the profile defaults
/// ([`InferenceProfile::from_env`], used by [`ServeConfig::default`]), but
/// an explicitly configured profile always wins.
///
/// The profile's precision must agree with the served pipeline's
/// [`Precision`] — an int8 profile over an uncalibrated f32 pipeline is a
/// typed [`ServeError::InvalidConfig`] at engine construction, never a
/// silent downgrade mid-serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InferenceProfile {
    /// Numeric path of the forward pass (f32 reference or calibrated int8).
    pub precision: Precision,
    /// Mesh reconstruction policy.
    pub mesh_policy: MeshPolicy,
    /// Kernel backend request, resolved (and process-pinned) at engine
    /// construction via `mmhand_kernels::request_backend`.
    pub kernel_backend: BackendChoice,
}

impl Default for InferenceProfile {
    /// The pure default: f32, meshes always, auto backend. Env fallbacks
    /// are applied only by [`InferenceProfile::from_env`].
    fn default() -> Self {
        InferenceProfile {
            precision: Precision::F32,
            mesh_policy: MeshPolicy::Always,
            kernel_backend: BackendChoice::Auto,
        }
    }
}

impl InferenceProfile {
    /// The default profile with the documented env fallbacks applied:
    /// `MMHAND_PRECISION` fills [`InferenceProfile::precision`] and
    /// [`BackendChoice::Auto`] defers to `MMHAND_KERNEL_BACKEND` inside the
    /// kernel dispatcher.
    pub fn from_env() -> Self {
        InferenceProfile { precision: Precision::env_fallback(), ..Default::default() }
    }

    /// Sets the precision.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Sets the mesh policy.
    pub fn mesh_policy(mut self, policy: MeshPolicy) -> Self {
        self.mesh_policy = policy;
        self
    }

    /// Sets the kernel backend request.
    pub fn kernel_backend(mut self, choice: BackendChoice) -> Self {
        self.kernel_backend = choice;
        self
    }
}

/// Configuration of a [`ServeEngine`](crate::ServeEngine).
///
/// Built builder-style from [`ServeConfig::new`]; every bound is explicit
/// and validated by [`ServeConfig::validate`] (called on engine
/// construction), so a zero-capacity queue is a typed error instead of a
/// silent stall. How the engine computes — precision, mesh policy, kernel
/// backend — lives in one typed [`InferenceProfile`].
///
/// ```
/// use mmhand_serve::{InferenceProfile, MeshPolicy, ServeConfig};
///
/// let cfg = ServeConfig::new()
///     .max_sessions(8)
///     .queue_capacity(32)
///     .max_batch(8)
///     .profile(
///         InferenceProfile::from_env()
///             .mesh_policy(MeshPolicy::SkipWhenBacklogged { segments: 2 }),
///     );
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission limit: concurrent open sessions.
    pub max_sessions: usize,
    /// Per-session ingress queue capacity, in raw frames.
    pub queue_capacity: usize,
    /// Micro-batch width: sessions folded into one forward pass per step.
    pub max_batch: usize,
    /// Per-session bound on buffered, un-taken results, in segments. A
    /// session at this bound is not scheduled, which backpressures its
    /// ingress queue.
    pub result_capacity: usize,
    /// Evict a session after this many consecutive steps without enough
    /// queued frames to form a segment. `0` disables eviction.
    pub evict_after_idle_steps: usize,
    /// How many *recently evicted* session ids are remembered so a late
    /// client gets the distinct [`ServeError::SessionEvicted`] instead of
    /// [`ServeError::UnknownSession`].
    /// The tombstone store is a bounded ring: once more than this many
    /// sessions have been evicted, the oldest tombstones degrade to the
    /// generic unknown-session error. This keeps long-running servers at
    /// O(`tombstone_capacity`) memory under unbounded session churn.
    pub tombstone_capacity: usize,
    /// The typed inference knob (precision, mesh policy, kernel backend).
    pub profile: InferenceProfile,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 16,
            queue_capacity: 64,
            max_batch: 8,
            result_capacity: 64,
            evict_after_idle_steps: 0,
            tombstone_capacity: 1024,
            profile: InferenceProfile::from_env(),
        }
    }
}

impl ServeConfig {
    /// Starts from the defaults.
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// Sets the concurrent-session admission limit.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n;
        self
    }

    /// Sets the per-session ingress queue capacity (frames).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the micro-batch width.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Sets the per-session result-buffer bound (segments).
    pub fn result_capacity(mut self, n: usize) -> Self {
        self.result_capacity = n;
        self
    }

    /// Sets the idle-step eviction budget (`0` disables eviction).
    pub fn evict_after_idle_steps(mut self, n: usize) -> Self {
        self.evict_after_idle_steps = n;
        self
    }

    /// Sets the bound on remembered eviction tombstones.
    pub fn tombstone_capacity(mut self, n: usize) -> Self {
        self.tombstone_capacity = n;
        self
    }

    /// Sets the whole typed inference profile at once — the preferred way
    /// to configure precision, mesh policy, and kernel backend together.
    pub fn profile(mut self, profile: InferenceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Checks every bound.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the first zero bound.
    pub fn validate(&self) -> Result<(), ServeError> {
        let invalid = |field: &'static str, reason: &str| {
            Err(ServeError::InvalidConfig { field, reason: reason.to_string() })
        };
        if self.max_sessions == 0 {
            return invalid("max_sessions", "must admit at least one session");
        }
        if self.queue_capacity == 0 {
            return invalid("queue_capacity", "a zero-capacity queue rejects every frame");
        }
        if self.max_batch == 0 {
            return invalid("max_batch", "must batch at least one session per step");
        }
        if self.result_capacity == 0 {
            return invalid("result_capacity", "a zero-capacity result buffer stalls every session");
        }
        if self.tombstone_capacity == 0 {
            return invalid(
                "tombstone_capacity",
                "must remember at least one evicted session to report SessionEvicted",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_bounds_are_typed_errors() {
        for (cfg, field) in [
            (ServeConfig::new().max_sessions(0), "max_sessions"),
            (ServeConfig::new().queue_capacity(0), "queue_capacity"),
            (ServeConfig::new().max_batch(0), "max_batch"),
            (ServeConfig::new().result_capacity(0), "result_capacity"),
            (ServeConfig::new().tombstone_capacity(0), "tombstone_capacity"),
        ] {
            match cfg.validate() {
                Err(ServeError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_chains() {
        let cfg = ServeConfig::new()
            .max_sessions(2)
            .queue_capacity(4)
            .max_batch(2)
            .result_capacity(8)
            .evict_after_idle_steps(3);
        assert_eq!(cfg.max_sessions, 2);
        assert_eq!(cfg.queue_capacity, 4);
        assert_eq!(cfg.max_batch, 2);
        assert_eq!(cfg.result_capacity, 8);
        assert_eq!(cfg.evict_after_idle_steps, 3);
    }

    #[test]
    fn profile_is_one_typed_knob() {
        let profile = InferenceProfile::default()
            .precision(Precision::Int8)
            .mesh_policy(MeshPolicy::Never)
            .kernel_backend(BackendChoice::Scalar);
        let cfg = ServeConfig::new().profile(profile);
        assert_eq!(cfg.profile, profile);
        assert_eq!(cfg.profile.precision, Precision::Int8);
        assert_eq!(cfg.profile.kernel_backend, BackendChoice::Scalar);
    }

    #[test]
    fn default_profile_is_pure_and_env_fallback_is_separate() {
        let pure = InferenceProfile::default();
        assert_eq!(pure.mesh_policy, MeshPolicy::Always);
        assert_eq!(pure.kernel_backend, BackendChoice::Auto);
        // from_env resolves precision through the documented fallback; the
        // other fields keep their pure defaults.
        let env = InferenceProfile::from_env();
        assert_eq!(env.mesh_policy, MeshPolicy::Always);
        assert_eq!(env.kernel_backend, BackendChoice::Auto);
    }
}
