#!/usr/bin/env python3
"""Run one gate: commands in a fresh directory, then check what they left.

    python3 tools/gate.py DIR [--exit N] [--expect TEXT]...
        [--edit SRC DST OLD NEW]... [--cmp OUT REF]... [--filter NAME]
        [--run CMD [ARG]...]...

DIR is emptied and becomes the working directory, so a gate reads and
writes nothing outside it but its inputs. Relative paths below are
relative to DIR. `NVO_*` environment overrides are dropped: a gate
runs exactly the command it names.

  --edit SRC DST OLD NEW  before any command, copy SRC to DST with the
                          first occurrence of OLD replaced by NEW (a
                          missing OLD fails the gate)
  --run CMD [ARG]...      a command (up to the next --run); commands
                          run in order, and each but the last must
                          exit 0
  --exit N                the last command's exit status (default 0)
  --expect TEXT           text the last command must print (stdout or
                          stderr); repeatable
  --cmp OUT REF           OUT must equal REF byte for byte; on a
                          mismatch the pretty-printed JSON diff shows
                          the rows that moved
  --filter NAME           rewrite each --cmp OUT before comparing, into
                          OUT's name with `.NAME` before the extension:
                            sections    tools/stats_sections.py (the
                                        simulated sections of a stats
                                        JSON)
                            policy-off  drop the echoed
                                        "policy.enabled":"0", key

Each command's output is echoed and kept as DIR/cmd<i>.log. Exit
status: 0 when every check holds, 1 when one fails, 2 on a usage error.
"""

import difflib
import json
import os
import shutil
import subprocess
import sys

# Import the filter from its own script, writing no bytecode cache
# into the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats_sections  # noqa: E402


def policy_off(text):
    key = '"policy.enabled":"0",'
    return "".join(line.replace(key, "", 1)
                   for line in text.splitlines(keepends=True))


FILTERS = {
    "sections": lambda text: stats_sections.sections(json.loads(text)),
    "policy-off": policy_off,
}


class Usage(Exception):
    pass


def parse(argv):
    opts = {"exit": 0, "expect": [], "edit": [], "cmp": [],
            "filter": None, "run": []}
    if not argv or argv[0].startswith("--"):
        raise Usage("missing DIR")
    opts["dir"] = argv[0]
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--run":
            j = i + 1
            while j < len(argv) and argv[j] != "--run":
                j += 1
            if j == i + 1:
                raise Usage("--run without a command")
            opts["run"].append(argv[i + 1:j])
            i = j
            continue
        arity = {"--exit": 1, "--expect": 1, "--edit": 4, "--cmp": 2,
                 "--filter": 1}.get(arg)
        if arity is None:
            raise Usage(f"unknown argument '{arg}'")
        vals = argv[i + 1:i + 1 + arity]
        if len(vals) < arity:
            raise Usage(f"{arg} takes {arity} value(s)")
        if arg == "--exit":
            opts["exit"] = int(vals[0])
        elif arg == "--expect":
            opts["expect"].append(vals[0])
        elif arg == "--edit":
            opts["edit"].append(vals)
        elif arg == "--cmp":
            opts["cmp"].append(vals)
        elif vals[0] not in FILTERS:
            raise Usage(f"unknown filter '{vals[0]}'")
        else:
            opts["filter"] = vals[0]
        i += 1 + arity
    return opts


def read(path):
    with open(path) as f:
        return f.read()


def edit(src, dst, old, new):
    text = read(src)
    if old not in text:
        print(f"FAIL: --edit: '{old}' does not occur in {src}")
        return False
    os.makedirs(os.path.dirname(os.path.abspath(dst)), exist_ok=True)
    with open(dst, "w") as f:
        f.write(text.replace(old, new, 1))
    return True


def run(cmd, index, env):
    print("$ " + " ".join(cmd), flush=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              errors="replace")
    except OSError as err:
        print(f"FAIL: cannot run {cmd[0]}: {err}")
        return None, ""
    with open(f"cmd{index}.log", "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def pretty(text):
    try:
        return json.dumps(json.loads(text), indent=4) + "\n"
    except ValueError:
        return text


def compare(out, ref, filt):
    got = read(out)
    if filt:
        got = FILTERS[filt](got)
        stem, ext = os.path.splitext(out)
        out = f"{stem}.{filt}{ext}"
        with open(out, "w") as f:
            f.write(got)
    want = read(ref)
    if got == want:
        print(f"ok: {out} == {ref}")
        return True
    print(f"FAIL: {out} differs from {ref}")
    sys.stdout.writelines(difflib.unified_diff(
        pretty(want).splitlines(keepends=True),
        pretty(got).splitlines(keepends=True), ref, out))
    return False


def main(argv):
    try:
        opts = parse(argv)
    except (Usage, ValueError) as err:
        sys.stderr.write(f"gate.py: {err}\n\n{__doc__}")
        return 2

    work = os.path.abspath(opts["dir"])
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NVO_")}

    ok = all([edit(*e) for e in opts["edit"]])
    last = len(opts["run"]) - 1
    for i, cmd in enumerate(opts["run"] if ok else []):
        status, output = run(cmd, i, env)
        want = opts["exit"] if i == last else 0
        if status != want:
            print(f"FAIL: `{cmd[0]}` exited {status}, expected {want}")
            ok = False
            break
        if i == last:
            for text in opts["expect"]:
                if text not in output:
                    print(f"FAIL: `{cmd[0]}` did not print '{text}'")
                    ok = False
    if ok:
        ok = all([compare(out, ref, opts["filter"])
                  for out, ref in opts["cmp"]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
