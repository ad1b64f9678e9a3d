//! Inputs of the simulated paper pipeline's layers — pricing, directive
//! verification, the job server and trace export — which the traced
//! ladder times. None of them runs a real stencil.

use acc_serve::{Scenario, Server};
use repro::accprof::{parse_case, DeviceChoice, ProfileRequest, RunMode};
use repro::serve::{overload_scenario, study_config, study_fleet};
use rtm_core::case::OptimizationConfig;
use seismic_grid::rng::SplitMix64;

/// Devices in the serve fleet.
const SERVE_DEVICES: usize = 4;
/// Offered load of the serve, × fleet capacity (past saturation, so
/// admission, shedding and breakers all act).
const SERVE_LOAD: f64 = 2.0;

/// Inputs of the pipeline layers, built from the seed.
pub struct Paper {
    pub cfg: OptimizationConfig,
    pub scenario: Scenario,
    pub server: Server,
    pub profile_req: ProfileRequest,
}

impl Paper {
    /// Serve scenario and fleet fault plan for `seed`; the pricing,
    /// verification and profile inputs are the paper's own and fixed (the
    /// self-test profiles a shortened run).
    pub fn new(seed: u64, toy: bool) -> Self {
        let serve_seed = SplitMix64::new(seed ^ 0x5eed_5e7e).next_u64();
        Self {
            cfg: OptimizationConfig::default(),
            scenario: overload_scenario(SERVE_LOAD, serve_seed, SERVE_DEVICES),
            server: Server::new(
                study_config(SERVE_DEVICES),
                study_fleet(serve_seed, SERVE_DEVICES),
            ),
            profile_req: ProfileRequest {
                case: parse_case("iso3d").expect("known case"),
                mode: RunMode::Rtm,
                device: DeviceChoice::K40,
                steps: toy.then_some(20),
                serve: false,
                host: false,
            },
        }
    }
}
