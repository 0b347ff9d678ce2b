//! The layer probe of the traced run: a fixed, seed-driven set of
//! calls that times each layer primitive directly. A per-layer metric
//! whose layer the workload's own calls do not reach (for example
//! `sandbox.compile_us` on `keyrec`, or `sim.reset_us`, which no
//! workload can time from outside `run_scan`) is read from here, so
//! every traced run reports every metric. Its spans and counters are
//! kept apart from the workload's. `sim.restore_us` always comes from
//! here: inside a fleet grid a trial's restore cannot be told apart
//! from the fleet's dispatch around it, so the probe times
//! `Machine::restore` directly and the fleet's share is the rest.

use std::hint::black_box;

use pandora_attacks::{BsaesAttack, UrgAttack};
use pandora_isa::Asm;
use pandora_sandbox::{compile, verify};
use pandora_server::job::{parse_job, JobKind};
use pandora_server::{run_scan, ScanLimits};
use pandora_sim::{Machine, NoiseConfig, OptConfig, SimConfig};

use crate::workloads::{self, fork_trials, noisy_leak};
use crate::{mix, trace};

/// Call id of every probe span.
pub const PROBE_CALL: u64 = u64::MAX;

const STREAM_PROBE: u64 = 0x7072_6f62_0001;
/// Direct restores timed for `sim.restore_us`.
const RESTORES: usize = 200;
/// Data-memory size of a built-in scan victim (256 KiB).
const SCAN_MEM: usize = 1 << 18;

/// Runs the probe with recording on. The caller takes the recording.
///
/// # Panics
///
/// Panics if a probed call fails; every probed input is fixed and
/// known to succeed.
pub fn run(seed: u64) {
    trace::set_enabled(true);
    trace::set_call(PROBE_CALL);

    // Fork path: one traced fork_trials call (fleet dispatch, restore,
    // prep, stepping, extract), snapshots of its warm state, and
    // direct restores from it.
    let fork = workloads::by_name("fork_trials").expect("fork_trials exists");
    let mut wl = (fork.setup)(seed);
    wl.call(0).expect("probe fork grid runs");
    drop(wl);
    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let new = seed | 1;
    let (_, ck) = fork_trials::warm_checkpoint(cfg, new);
    for _ in 0..9 {
        black_box(fork_trials::warm_checkpoint(cfg, new));
    }
    fork_trials::direct_restores(&ck, new, RESTORES);

    for _ in 0..20 {
        let m = trace::span("sim.new_machine", || Machine::new(SimConfig::default()));
        drop(black_box(m));
    }

    // Scan provisioning: a cold `reset_to` and a whole-image write per
    // member, on a scan-shaped machine.
    let scan_cfg = SimConfig {
        mem_size: SCAN_MEM,
        ..SimConfig::default()
    };
    let image: Vec<u8> = (0..SCAN_MEM as u64)
        .map(|k| mix(seed, STREAM_PROBE, k / 8) as u8)
        .collect();
    let mut m = Machine::new(scan_cfg);
    for _ in 0..50 {
        trace::span("sim.image_write", || m.mem_mut().write_bytes(0, &image)).expect("image fits");
        trace::span("sim.reset", || m.reset_to(scan_cfg));
    }

    // Sandbox admission and JIT of the URG attacker program.
    let urg = UrgAttack::new(3);
    for _ in 0..50 {
        trace::span("sandbox.verify", || verify(urg.program())).expect("URG verifies");
        let mut asm = Asm::new();
        trace::span("sandbox.compile", || {
            compile(&mut asm, "urg", urg.program(), urg.layout())
        })
        .expect("URG compiles");
    }

    // Attacks: noisy URG runs and voted leaks, one bsaes slice.
    for i in 0..2 {
        let (addr, byte, noise_seed) = noisy_leak::target(seed, i);
        let mut atk = urg.clone();
        atk.plant_secret(addr, byte);
        atk.set_noise(NoiseConfig::at_intensity(noisy_leak::INTENSITY, noise_seed));
        noisy_leak::traced_run(&atk, addr, 1).expect("probe URG run");
        let leaked = atk
            .leak_byte_vote(addr, noisy_leak::REDUNDANCY)
            .expect("probe leak");
        trace::count("attacks.bytes", 1.0);
        trace::count(
            "attacks.bytes_right",
            f64::from(u8::from(leaked == Some(byte))),
        );
    }
    let key: [u8; 16] = std::array::from_fn(|k| mix(seed, STREAM_PROBE, 1000 + k as u64) as u8);
    let atk = trace::span("isa.bsaes_build", || {
        BsaesAttack::new(key, [7; 16], [3; 16], 0)
    });
    for _ in 0..2 {
        black_box(trace::span("isa.bsaes_build", || {
            BsaesAttack::new(key, [7; 16], [3; 16], 0)
        }));
    }
    let truth = atk.true_slice_value();
    let got = trace::span("attacks.recover_slice", || {
        atk.recover_slice([truth, truth ^ 1], 60)
    });
    assert_eq!(got, Some(truth), "probe slice recovers");

    // Server: one control scan.
    let body = format!(
        r#"{{"victim":"ct-control","trials":1,"seed":{}}}"#,
        mix(seed, STREAM_PROBE, 2000) & 0xffff_ffff
    );
    let job = trace::span("server.parse_job", || {
        parse_job(body.as_bytes(), &ScanLimits::default(), false)
    })
    .expect("probe request parses");
    let JobKind::Scan(spec) = job.kind else {
        panic!("probe request is a scan")
    };
    let report = trace::span("server.run_scan", || run_scan(&spec, 1)).expect("probe scan runs");
    trace::count("server.runs", f64::from(report.runs));
    black_box(trace::span("server.report_json", || {
        report.to_json().dump()
    }));
    trace::count("server.requests", 1.0);

    trace::set_enabled(false);
}
