"""The command line's documented refusals, each ending as exit status 1 or 2,
no stdout and one stderr line: argv, ``BBC_CAPACITY_PRECISION`` (None: unset),
the status and the line.

``test_cli`` runs each one in process, ``process_checks`` as a process.  It
imports nothing, so the process runner stays at a bare interpreter's size
while its children run.
"""

REFUSALS = {
    "ns_not_a_number": (["region", "--etas", "0.2,0.3", "--ns", "abc"], None, 1,
                        "bbcap: usage error: argument --ns: expected a real or 'inf', got 'abc'"),
    "empty_grid": (["convergence", "--etas", "0.2,0.3", "--ns-grid", ","], None, 1,
                   "bbcap: usage error: argument --ns-grid: needs at least one value"),
    "precision_0": (["region", "--etas", "0.2,0.3"], "0", 1,
                    "bbcap: usage error: BBC_CAPACITY_PRECISION must be in 1..17, got 0"),
    "precision_18": (["region", "--etas", "0.2,0.3"], "18", 1,
                     "bbcap: usage error: BBC_CAPACITY_PRECISION must be in 1..17, got 18"),
    "cutoff_61": (["verify", "--etas", "0.2,0.3", "--ns", "0.5", "--cutoff", "61"], None, 2,
                  "bbcap: inconclusive: cutoff 61 exceeds the supported maximum 60"),
    "vertices_m9": (["vertices", "--etas", ",".join(["0.1"] * 9)], None, 1,
                    "bbcap: error: vertex enumeration limited to m <= 8"),
    "boundary_unbounded": (["boundary", "--etas", "0.6,0.4", "--ns", "inf"], None, 1,
                           "bbcap: error: region is unbounded; boundary is undefined"),
    "convergence_unbounded": (["convergence", "--etas", "0.6,0.4", "--ns-grid", "1"], None, 1,
                              "bbcap: error: unconstrained bounds are unbounded when the "
                              "receivers take everything"),
    "verify_memory_budget": (["verify", "--etas", "0.1,0.1,0.1,0.1,0.1", "--ns", "1.5", "--cutoff",
                              "60"], None, 2,
                             "bbcap: inconclusive: the largest run of sectors at cutoff 60 holds "
                             "8259888 entries: 3172827648 bytes, above the budget of 1073741824 "
                             "bytes"),
}
