"""Cluster topologies (networkx graphs) and their effect on the cost model.

The paper's cluster is 629 nodes of 4 A100s on a non-blocking fat tree
with RoCE at 25 GB/s.  We model two layers of locality: intra-node links
(NVLink/PCIe-class bandwidth between the 4 GPUs of a node) and the
inter-node fat tree.  The topology informs the alpha-beta parameters the
:class:`~repro.parallel.comm.CostModel` uses for a given ring placement.
networkx is imported where a graph is built or walked, not with the
package: a process that never models a cluster never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .comm import CostModel

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware characteristics of the modeled cluster (paper Sec. 4)."""

    gpus_per_node: int = 4
    intra_node_bandwidth_Bps: float = 64e9  # PCIe 4.0 x16
    inter_node_bandwidth_Bps: float = 25e9  # RoCE fat tree
    link_latency_s: float = 10e-6


def build_fat_tree(n_nodes: int, gpus_per_node: int = 4) -> nx.Graph:
    """A two-level fat-tree-ish graph: GPUs -> node switch -> core switch.

    Non-blocking at the core (single core vertex with fat edges), which is
    how the paper describes its interconnect; enough structure for path
    and bisection queries in the tests.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_node("core", kind="switch")
    for node in range(n_nodes):
        sw = f"node{node}"
        g.add_node(sw, kind="switch")
        g.add_edge(sw, "core", kind="inter")
        for dev in range(gpus_per_node):
            gpu = f"gpu{node}.{dev}"
            g.add_node(gpu, kind="gpu")
            g.add_edge(gpu, sw, kind="intra")
    return g


def ring_order(graph: nx.Graph) -> list[str]:
    """GPUs ordered so that ring neighbors are co-located when possible
    (fills each node before moving to the next)."""
    gpus = sorted(
        (n for n, d in graph.nodes(data=True) if d.get("kind") == "gpu"),
        key=lambda s: tuple(int(x) for x in s[3:].split(".")),
    )
    return gpus


def ring_hops(graph: nx.Graph) -> list[int]:
    """Switch-hop count between consecutive ring members (wrap included)."""
    import networkx as nx

    order = ring_order(graph)
    hops = []
    for a, b in zip(order, order[1:] + order[:1]):
        hops.append(nx.shortest_path_length(graph, a, b))
    return hops


def cost_model_for(graph: nx.Graph, spec: ClusterSpec | None = None) -> CostModel:
    """Alpha-beta parameters for a ring over this topology.

    The ring's sustained bandwidth is limited by its slowest link: if any
    hop crosses the inter-node fabric, the inter-node bandwidth governs;
    an all-intra-node ring gets the faster local links.  Latency scales
    with the longest hop path.
    """
    spec = spec or ClusterSpec()
    hops = ring_hops(graph)
    inter = any(h > 2 for h in hops)  # >2 switch hops means leaving the node
    bw = spec.inter_node_bandwidth_Bps if inter else spec.intra_node_bandwidth_Bps
    return CostModel(latency_s=spec.link_latency_s * max(hops), bandwidth_Bps=bw)


def cluster_for_gpus(n_gpus: int, spec: ClusterSpec | None = None) -> nx.Graph:
    """Smallest fat tree holding ``n_gpus`` (paper node = 4 GPUs)."""
    spec = spec or ClusterSpec()
    n_nodes = (n_gpus + spec.gpus_per_node - 1) // spec.gpus_per_node
    g = build_fat_tree(max(n_nodes, 1), spec.gpus_per_node)
    # drop the unused GPUs of the last node
    gpus = ring_order(g)
    for extra in gpus[n_gpus:]:
        g.remove_node(extra)
    return g
