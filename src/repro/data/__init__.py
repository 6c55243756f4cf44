"""repro.data -- frame sources, storage, batching, and the Table 3 systems.

The data API is the :class:`FrameSource` protocol: in-memory
:class:`Dataset` and out-of-core :class:`ShardedFrameStore` both speak
it, :func:`open_source` turns paths/objects into sources, and
:func:`make_loader` builds the (optionally prefetching) batch iterator.
"""

from ..md.neighbor import NeighborArrays
from .dataset import Dataset
from .framestore import FrameStoreCorrupt, ShardedFrameStore
from .loader import BatchLoader, StreamingLoader, make_loader
from .source import Frames, FrameSource, open_source, windowed_order
from .store import read_npz, write_npz
from .systems import EXTRA_SYSTEMS, SYSTEMS, SystemSpec, generate_dataset, get_system, table3_rows

__all__ = [
    "Dataset",
    "NeighborArrays",
    "Frames",
    "FrameSource",
    "open_source",
    "windowed_order",
    "ShardedFrameStore",
    "FrameStoreCorrupt",
    "BatchLoader",
    "StreamingLoader",
    "make_loader",
    "write_npz",
    "read_npz",
    "SYSTEMS",
    "EXTRA_SYSTEMS",
    "get_system",
    "SystemSpec",
    "generate_dataset",
    "table3_rows",
]
