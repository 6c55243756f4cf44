"""repro.harness -- regenerate every table and figure of the paper.

Run from the command line::

    python -m repro.harness list
    python -m repro.harness table1 --systems Cu,Al
    python -m repro.harness all --systems quick

or call the per-experiment ``run`` functions directly.
"""

from . import ablations, figure1, figure4, figure7, memory, scaling, table1, table3, table4, table5
from .common import Report

#: experiment name -> zero-/keyword-arg callable returning a Report
EXPERIMENTS = {
    "table1": table1.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figure1": figure1.run,
    "figure4": figure4.run,
    "figure7a": figure7.run_7a,
    "figure7b": figure7.run_7b,
    "figure7c": figure7.run_7c,
    "memory": memory.run,
    "scaling": scaling.run,
    "scaling_walltime": scaling.run_walltime,
    "ablations": ablations.run,
    "ablation_lambda_nu": ablations.run_lambda_nu,
    "ablation_dataflow": ablations.run_funnel_vs_fusiform,
    "ablation_force_graph": ablations.run_force_graph_reuse,
}

__all__ = ["EXPERIMENTS", "Report"]
