"""The repository's end-to-end benchmark: ``python3 -m bench``.

Paper workloads (Fig 1 image pipeline, Fig 2 expressions) plus a cold and a
warm many-node DAG, each run on the ``reference`` / ``toil`` / ``parsl``
engine columns in fresh child processes, with every output verified and a
separate traced pass attributing time to layers.  See ``bench/README.md``.
"""
