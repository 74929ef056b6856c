// Frozen reference copy of the scalar dsp AWGN generators (one
// gaussian(sigma) call per I/Q component) from before they drew through
// Rng::gaussian_n, running on the frozen refrng::Rng. Kept verbatim apart
// from the namespace, the includes and the using-declarations (Rng is
// refrng::Rng; Complex, Cvec and mean_power are the library's), so
// tests/dsp/awgn_lockstep_test.cpp and bench/micro_dsp's ref arm compare
// the library against the parent generator end to end. Do not edit: a
// change here weakens the oracle.
//
// Additive white Gaussian noise generation.
#pragma once

#include "mmx/dsp/types.hpp"
#include "rng_ref.hpp"

namespace mmx::refdsp {

using dsp::Complex;
using dsp::Cvec;
using refrng::Rng;

/// Complex AWGN block with total mean power `power_lin` (split evenly between
/// I and Q).
Cvec awgn(std::size_t n, double power_lin, Rng& rng);

/// Fill `out` with AWGN of total mean power `power_lin` (no allocation).
/// Draw-for-draw identical to `awgn` at the same RNG state.
void awgn_into(std::span<Complex> out, double power_lin, Rng& rng);

/// Add AWGN of mean power `power_lin` to `x` in place.
void add_awgn(std::span<Complex> x, double power_lin, Rng& rng);

/// Add noise at `snr_db` below the measured mean power of `x`.
void add_awgn_snr(std::span<Complex> x, double snr_db, Rng& rng);

}  // namespace mmx::refdsp
