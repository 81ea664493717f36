"""One module per verb of the command line (two verbs share one where they
share an adapter).  Each defines add_arguments(parser, verb), which fills in
the verb's sub-parser, and run(args), which runs the verb and returns its
exit code.  A process imports only its own verb's module, and run imports
the library modules it calls when it runs, so a process compiles only its
own verb's code.  _parser holds the argparse parser, which only the command
lines that tightrel.cli's plain parse declines load.  No module here imports
tightrel.cli: under `python -m tightrel.cli` that module runs as __main__,
and importing it again would compile it twice.
"""

# One (name, help, module) row per verb; the module is the verb's module here.
_VERBS = (
    ("verify", "check a block file for t-design balance", "verify"),
    ("check-relative", "run the two-shell moment oracle on a candidate file", "check_relative"),
    ("lambda-seq", "print the coverage-count histogram as count*value tokens", "lambda_seq"),
    ("scan-3", "feasible strength-3 parameter rows as TSV", "scan"),
    ("scan-4", "feasible strength-4 parameter rows as TSV", "scan"),
    ("nonexist", "apply the nonexistence test matching v,k,lam", "nonexist"),
    ("construct", "generate a design file", "construct"),
    ("transform", "derive a design from an existing file", "construct"),
    ("conjecture2", "pairs in a corpus directory with equal coverage histograms", "conjecture2"),
)


def _command(module):
    # __import__, unlike importlib.import_module, shows in -X importtime
    return __import__(f"tightrel.commands.{module}", fromlist=("run",))
