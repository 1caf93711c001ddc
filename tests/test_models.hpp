// Shared CommModel configurations for the GA runtime tests.
#pragma once

#include "sva/ga/comm_model.hpp"

namespace sva::testing {

/// Default model with compute_scale zeroed: virtual clocks advance only
/// by modeled communication, keeping measured host-CPU jitter (large
/// under sanitizers) out of modeled-cost comparisons.
inline ga::CommModel zero_compute_model() {
  ga::CommModel model;
  model.compute_scale = 0.0;
  return model;
}

/// `model` with queue claims granted in virtual-time order (ga::ClaimGate),
/// for tests that assert a modeled schedule regardless of host threading.
inline ga::CommModel vtime_ordered(ga::CommModel model = {}) {
  model.vtime_ordered_claims = true;
  return model;
}

}  // namespace sva::testing
