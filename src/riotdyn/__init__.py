"""riotdyn: coupled activity/social-tension burst dynamics.

Single-site ODEs under exogenous shocks, network dynamics with geographic
and social coupling (deterministic and stochastic), and continuum
reaction-diffusion systems (local and nonlocal), plus the phase-plane,
mass-decay, and traveling-front analyses built on them.
"""
from .errors import (BlowUpError, ConfigError, NoExcitedStateError,
                     SimulationError)
from .model import (ExcitabilityReport, FixedPoint, ModelParams, SiteState,
                    activity_nullcline, activity_rate, check_excitability,
                    fixed_points, peak_activity, self_reinforcement,
                    tension_decay_rate, tension_nullcline, tension_rate,
                    tension_threshold, transition_rate)
from .shocks import (AmplitudeLaw, ExplicitSchedule, PeriodicSchedule,
                     PoissonSchedule, Shock, realize)
from .single_site import (ForcedRegimeResult, HysteresisResult, Trajectory,
                          check_relaxation, classify_forced_regime,
                          hysteresis_sweep, integrate_site, load_trajectory,
                          max_activity_window, save_trajectory)
from .network import (DelayReport, Graph, NetworkState, NetworkTrajectory,
                      SpreadReport, ThresholdScan, activation_times,
                      classify_spread, delay_experiment,
                      double_threshold_scan, graph_from_edge_files,
                      graph_from_edge_lists, grid_graph, integrate_network,
                      network_rhs, save_network_trajectory)
from .continuum import (FieldState, FieldTrajectory, FrontReport,
                        MassDecayReport, NonlocalSpec, PdeParams, PeakReport,
                        SpatialGrid, SteadyStatesReport, cfl_time_step,
                        find_bistability_boundary, integrate_pde,
                        kernel_matrix, laplacian, load_field_trajectory,
                        mass_diagnostics, pde_rhs_local, pde_rhs_nonlocal,
                        peak_statistics, save_field_trajectory,
                        steady_states, track_front)

__version__ = "0.1.0"
