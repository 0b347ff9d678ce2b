//! `noisy_leak`: the Fig 7 universal read gadget under environmental
//! noise at e16's midpoint intensity. One call is
//! `UrgAttack::leak_byte_vote(addr, 3)` under
//! `NoiseConfig::at_intensity(30, s)` against one seed-derived
//! printable secret byte (values 1–6 collide with the training lines
//! and cannot be leaked by design, so they never occur). Check: the
//! leaked byte equals the planted one; a wrong or missing byte is a
//! failed op. A traced call is one `attacks.leak_byte_vote` span
//! around the program's own `leak_byte_vote`; its leak runs and noise
//! counters are timed by the layer probe through [`traced_run`].

use pandora_attacks::{LeakRun, UrgAttack};
use pandora_runner::fnv1a64;
use pandora_sim::{fleet, NoiseConfig, SimStats};

use super::{CallError, CallOut, Workload};
use crate::{mix, trace};

/// e16's midpoint noise intensity.
pub const INTENSITY: u16 = 30;
/// Vote rounds per byte.
pub const REDUNDANCY: usize = 3;

const SECRET_BASE: u64 = 0x20_0000;
const STREAM_TARGET: u64 = 0x6e6f_6973_0001;
const STREAM_NOISE: u64 = 0x6e6f_6973_0002;

/// Call `i`'s target: secret address, printable secret byte, noise
/// seed.
#[must_use]
pub fn target(seed: u64, i: u64) -> (u64, u8, u64) {
    let r = mix(seed, STREAM_TARGET, i);
    let addr = SECRET_BASE + (r >> 32) % 4096;
    let byte = b'!' + (r % 94) as u8;
    (addr, byte, mix(seed, STREAM_NOISE, i))
}

struct NoisyLeak {
    seed: u64,
    /// The verified attacker program and its machine configuration.
    base: UrgAttack,
}

/// Builds (and verifies) the attacker program once.
pub fn setup(seed: u64) -> Box<dyn Workload> {
    fleet::set_default_threads(1);
    Box::new(NoisyLeak {
        seed,
        base: UrgAttack::new(3),
    })
}

/// One leak run in an `attacks.urg_run` span, with its noise
/// counters.
///
/// # Errors
///
/// The run's [`pandora_sim::SimError`].
pub fn traced_run(
    atk: &UrgAttack,
    addr: u64,
    train_base: u64,
) -> Result<(LeakRun, SimStats), CallError> {
    let (run, m) = trace::span("attacks.urg_run", || atk.try_run(addr, train_base))?;
    let s = *m.stats();
    trace::count("noise.cycles", s.cycles as f64);
    trace::count("noise.events", s.noise_events as f64);
    Ok((run, s))
}

impl Workload for NoisyLeak {
    fn call(&mut self, i: u64) -> Result<CallOut, CallError> {
        let (addr, byte, noise_seed) = target(self.seed, i);
        let mut atk = self.base.clone();
        atk.plant_secret(addr, byte);
        atk.set_noise(NoiseConfig::at_intensity(INTENSITY, noise_seed));
        let leaked = trace::span("attacks.leak_byte_vote", || {
            atk.leak_byte_vote(addr, REDUNDANCY)
        })?;
        trace::count("attacks.bytes", 1.0);
        trace::count(
            "attacks.bytes_right",
            f64::from(u8::from(leaked == Some(byte))),
        );
        Ok(CallOut {
            work: 1,
            ok: leaked == Some(byte),
            digest: fnv1a64(&[u8::from(leaked.is_some()), leaked.unwrap_or(0)]),
        })
    }
}
