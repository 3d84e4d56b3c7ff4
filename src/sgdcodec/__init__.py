"""Deterministic SGD on a fixed-point grid with exact permutation compression.

The package runs epoch SGD where every arithmetic step is reproducible bit
for bit, encodes each epoch's shuffle against the evolving model as side
information, decodes it back exactly (including a mode where intermediate
models are recovered by reverse search from the final weights alone), and
accounts for every bit against the entropy bounds that make the compression
argument work.
"""

__version__ = "0.1.0"
