"""High-precision modular data, characters and heat-trace spectral
invariants of the c < 1 minimal models, with exact Virasoro algebra,
Fock-space trace identities, and finite-dimensional modular theory.

Typical session::

    from mpmath import mp
    import cftinv as ci

    mp.dps = 50
    model = ci.build_minimal_model(3)
    md = ci.modular_matrices(model)
    series = ci.all_character_series(model, 2000)
    fn, err = ci.sector_log_trace(md, series, "vacuum")
    fit = ci.fit_invariants(fn, ci.DEFAULT_FIT_GRID, err_fn=err)
    # fit.a0 ~ pi c / 12, fit.a1 ~ log(d / sqrt(mu)), fit.a2 ~ -pi c / 12
"""

from .modular_data import (MinimalModel, ModularData, Sector,
                           build_minimal_model, modular_matrices,
                           verlinde_fusion, mu_n_index, to_json_dict)
from .characters import (CharacterSeries, TraceValue, all_character_series,
                         character_coeffs, count_states, evaluate,
                         evaluate_small_t, partition_numbers,
                         s_transform_residual, required_cutoff)
from .spectral import (AsymptoticFit, DEFAULT_FIT_GRID, TwoDimSpec,
                       cardy_count_check, clean_fit_grid, combine_2d,
                       dimension_estimate, fit_invariants, fit_report,
                       index_density_derivative, kw_ratio, sector_log_trace,
                       sector_log_trace_bare, two_dim_spec, weyl_heat_demo)
from .virasoro import (MoebiusMap, VirElement, L, bracket, central,
                       cover_action, free_energy, generator_shift,
                       jacobi_residual, rescale_embed, verify_embedding)
from .fock import (OneParticleOperator, contraction, positive, gamma_trace,
                   gamma_trace_bruteforce, log_gamma_trace, fermi_ratio_scan,
                   linear_spectrum_ratio_limit)
from .lab import (FiniteFactorTriple, FlowGenerator, araki_relative_entropy,
                  canonical_flow, connes_cocycle, entropy_derivative_identity,
                  index_product, pimsner_popa_entropy, relative_entropy_oracle,
                  spatial_derivative)
from .bridge import (BlackHoleParams, cardy_density_reference, cell_entropy,
                     cell_increment, hawking_and_bekenstein,
                     incremental_free_energy, mu_free_energy,
                     verify_alpha_quarter)
from . import errors

__version__ = "0.1.0"
