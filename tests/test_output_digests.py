"""SHA-256 digests of the bytes the package writes and prints.

A speed-up must leave every output byte as it was.  The digests below were
recorded before the calculus built its pair lists once per scenario; any
change to a CSV, .meta or verify byte (timings aside) fails here.
"""

import hashlib
import re

from seqweak.cli import main
from seqweak.experiments import Scenario, ScenarioKind, SweepSpec, records_to_csv, run_sweep

DIGESTS = {
    "sweep sequential csv": "bde951af9904b4f70b79488052126902c3b67c8bc385d5a476892a27fbb68851",
    "sweep sequential meta": "61e76e323e5e42dfb1f5459963bf4b28f6f83c13dd63ab2b82be754be04d8f3c",
    "sweep two-qubit csv": "933d1a85b79097b66e89b34971ecca8afbbcced1f78c7c4e2397f2a75f72972f",
    "sweep two-qubit meta": "de3842e460a2a1be6704832f8c09619961140c5692746f8b9a1b762add86792f",
    "sweep single csv": "ef1471d98e0d748311a203475ac079503b5524c76d989dbc03712cf190c32439",
    "sweep single meta": "b99040235ad11c8236a7a70e0c3de4b3c40e20a49f62911f243aebf435411ba6",
    "sweep both csv": "da3efb345e126f633ecaf1d8ae55cd511a2ff5fad220f1dec005e9de5c4538ef",
    "sweep both meta": "c5b614717f664f6a7825f5a503ba4d572239ae2c92869553a7f5ac6186af6359",
    "library sequential 25 -35": "7ecf103c9f4e88aaa833aa7e01b5e607ff4d20b09de53d2d4291f362255c5e45",
    "library two-qubit 25 -35": "18f1001d0d0d1fafbe3adc79952b5480ea2b338ae54481b88daf09f81c956226",
    "library single 25 -35": "97717012f5c7aa20498e72eca86fb592119020abcdb3b6ffac1d663df0942629",
    "library sequential 28 -33": "1478e11e4a14de3ca9c9a526f4a6426fb8d2122933e3bca46df4291b15b4eac2",
    "library two-qubit 28 -33": "eb1bdac5bb49ea9d7a423f3e4b31157592c1fbda7a64dbef7d36d6a84605cede",
    "library single 28 -33": "0ddaac648e3e69c54f0a41210acbfa98304dddd98ded21848b064c7be30bde04",
    "verify --fast": "59a3e3e1a5af7fbb0c227c0891bc40aac48d4c3a48f2931d31b5974c36eef652",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(tmp_path, capsys) -> dict[str, str]:
    digests = {}
    analytic = ["--engine", "analytic", "--sigma", "0.3mm", "--delta-range", "0:1.5:401"]
    sweeps = [(kind, ["--scenario", kind, *analytic]) for kind in ("sequential", "two-qubit", "single")]
    sweeps.append(("both", ["--engine", "both", "--grid-size", "256"]))
    for name, flags in sweeps:
        csv = tmp_path / f"{name}.csv"
        assert main(["sweep", *flags, "--out", str(csv)]) == 0
        digests[f"sweep {name} csv"] = sha256(csv.read_bytes())
        digests[f"sweep {name} meta"] = sha256(csv.with_name(f"{name}.csv.meta").read_bytes())
    for prep, mid in ((25.0, -35.0), (28.0, -33.0)):
        for kind in ScenarioKind:
            records = run_sweep(SweepSpec(Scenario(kind, 0.12, prep, mid), 0.0, 0.711, 31))
            digests[f"library {kind.value} {prep:g} {mid:g}"] = sha256(records_to_csv(records))
    capsys.readouterr()
    assert main(["verify", "--fast"]) == 0
    text = re.sub(r"\[\d+\.\d\d s\]", "[x.xx s]", capsys.readouterr().out)
    digests["verify --fast"] = sha256(text.encode("ascii"))
    return digests


def test_output_bytes_keep_their_digests(tmp_path, capsys):
    assert output_digests(tmp_path, capsys) == DIGESTS
