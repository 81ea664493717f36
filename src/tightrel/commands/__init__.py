"""One module per verb of the command line (two verbs share one where they
share an adapter).  Each defines add_arguments(parser, verb), which fills in
the verb's sub-parser, and run(args), which runs the verb and returns its
exit code.  tightrel.cli imports a verb's module only when it registers that
verb, and run imports the library modules it calls when it runs, so a
process compiles only its own verb's code.  No module here imports
tightrel.cli: under `python -m tightrel.cli` that module runs as __main__,
and importing it again would compile it twice.
"""
