"""Set-up work a fresh interpreter does before npiv can run: import the CLI, load a config, build the specs.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
Prints the noise level it derived and the path of the npiv it imported.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import npiv.cli as cli  # noqa: E402

cfg = cli.load_config(sys.argv[2])
phi = cli.structural_from_config(cfg)
op = cli.operator_from_config(cfg)
sigma = cli.sigma_from_config(cfg, phi)
print(json.dumps({"sigma": sigma, "truncation": op.truncation, "npiv": cli.__file__}))
