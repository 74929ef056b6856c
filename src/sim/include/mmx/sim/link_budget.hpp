// Calibrated end-to-end link budget for mmX experiments.
//
// Single calibration point (documented per DESIGN.md §4): the paper's
// testbed tops out near 35-40 dB SNR at arm's length (Fig. 12 / §6.1's
// "SNR can be up to 35 dB"), while an ideal Friis budget with our antenna
// gains predicts ~62 dB — the difference (connector/cable losses,
// pointing error, polarization mismatch, demod implementation loss) is
// folded into one `implementation_loss_db` constant. Everything else —
// distance decay, beam nulls, blockage dips, OTAM contrast — emerges
// from the physical models.
#pragma once

#include <complex>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/rf/chain.hpp"
#include "mmx/rf/spdt.hpp"

namespace mmx::sim {

struct LinkBudgetSpec {
  double tx_power_dbm = 10.0;          ///< node radiated power (paper §8.1)
  double implementation_loss_db = 18.0;  ///< see header comment
  rf::ReceiverChainSpec receiver;       ///< AP chain (25 MHz noise BW default)
};

/// Link metrics for one node's OTAM transmission.
struct OtamLink {
  double rx1_dbm;       ///< received power while transmitting on Beam 1
  double rx0_dbm;       ///< received power while transmitting on Beam 0
  double snr_db;        ///< paper-style SNR: stronger level over the noise floor
  double contrast_db;   ///< |level difference| between the two beams
  double ask_ber;       ///< two-level envelope BER given the contrast
  double fsk_ber;       ///< non-coherent BFSK BER on the stronger tone
  double joint_ber;     ///< min(ask, fsk) — §6.3 selection decoding
};

class LinkBudget {
 public:
  explicit LinkBudget(LinkBudgetSpec spec = {});

  /// Received power [dBm] for a complex end-to-end gain h (includes both
  /// antennas and the path).
  double rx_power_dbm(std::complex<double> h) const;

  /// SNR [dB] of a single received level.
  double snr_db(std::complex<double> h) const;

  /// Full OTAM link evaluation from per-beam gains. `n_avg` is the number
  /// of independent samples averaged per symbol by the envelope detector.
  OtamLink evaluate_otam(const channel::BeamGains& gains, const rf::SpdtSwitch& spdt,
                         std::size_t n_avg = 8) const;

  /// The "without OTAM" baseline: the node ASK-modulates on Beam 1 only;
  /// SNR comes solely from |h1| and BER from the OOK levels {h1, floor}.
  OtamLink evaluate_fixed_beam(const channel::BeamGains& gains, double ask_floor = 0.1,
                               std::size_t n_avg = 8) const;

  double noise_floor_dbm() const { return noise_floor_dbm_; }
  const LinkBudgetSpec& spec() const { return spec_; }

 private:
  LinkBudgetSpec spec_;
  // The receiver chain is fixed, so its Friis cascade runs once here.
  double noise_floor_dbm_;
  double noise_floor_w_;
};

}  // namespace mmx::sim
