"""Set-up probe: import dimerge, then load and key-remap the three inputs.

Usage: python3 load_inputs.py CONFIG_JSON

This is everything a merge pays before any math; the benchmark times the
whole process from outside. Prints one JSON line with the tensor counts and
where dimerge was imported from, so the caller can check both.
"""

from __future__ import annotations

import inspect
import json
import sys


def main(config_path: str) -> int:
    import dimerge
    from dimerge.presets import remap_rules
    from dimerge.store import load_checkpoint, remap_keys

    config = json.loads(open(config_path).read())
    family = config["remap"]["preset"]
    takes_role = len(inspect.signature(load_checkpoint).parameters) > 1
    counts = {}
    for key, role in (("base_path", "base"), ("multilingual_path", "multilingual"), ("anchor_path", "anchor")):
        if takes_role:
            from dimerge.store import Role
            ckpt = load_checkpoint(config[key], Role(role))
        else:
            ckpt = load_checkpoint(config[key])
        counts[role] = len(remap_keys(ckpt, remap_rules(family, role)))
    print(json.dumps({"dimerge": dimerge.__file__, "tensors": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
