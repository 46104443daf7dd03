"""One traced ``parareal`` CLI process.

Usage: ``python cli_child.py <spans.npz> <parareal arguments...>`` with the
package's ``src`` on ``PYTHONPATH``.  Installs the tracer, runs
``parareal.cli.entry()`` on the arguments and writes the process's spans to the
first argument when it exits, whatever the exit code.
"""

import sys

import parareal.cli
import tracer

spans_path = sys.argv[1]
sys.argv = ["parareal", *sys.argv[2:]]
trace = tracer.Tracer()
tracer.install(trace)
trace.start()
try:
    parareal.cli.entry()
finally:
    tracer.save(spans_path, [trace.stop()])
