"""The one device catalogue: ``gpusim.DEVICES`` built from the shipped
profile documents, read-only, the same in every process, and shipped
with a built install."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.devices import PROFILE_DIR, get_profile, profile_names
from repro.errors import ProfileValidationError
from repro.gpusim.device import DEVICES, load_catalogue, spec_digest

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Every shipped device's spec digest, written out.  A changed digest
#: re-keys every evaluation-cache record and archived serving digest
#: computed on that device.
DIGESTS = {
    "k40c": ("Tesla K40c", "644a6f716191"),
    "k20x": ("Tesla K20X", "6b459e0ecd34"),
    "maxwell": ("GTX TITAN X (Maxwell)", "e7e2a5ae74df"),
    "m40": ("Tesla M40", "cac9e8e3776d"),
    "pascal": ("Tesla P100 (Pascal)", "d3a85b2596ca"),
}


def run_python(args, cwd=None, pythonpath=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath or os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestCatalogue:
    @pytest.mark.parametrize("slug", sorted(DIGESTS))
    def test_spec_digest(self, slug):
        display, digest = DIGESTS[slug]
        assert spec_digest(DEVICES[display]) == digest
        assert get_profile(slug).spec is DEVICES[display]

    def test_holds_every_shipped_device(self):
        assert sorted(DEVICES) == sorted(d for d, _ in DIGESTS.values())
        assert profile_names() == sorted(DIGESTS)

    def test_read_only(self):
        with pytest.raises(TypeError):
            DEVICES["Mystery GPU"] = DEVICES["Tesla M40"]

    def test_same_in_any_import_order(self):
        """A fresh interpreter sees all five devices — and keys Pascal
        by its digest — before anything loads the profile registry."""
        proc = run_python(["-c", (
            "import json\n"
            "from repro.core.evalcache import device_key\n"
            "from repro.gpusim.device import DEVICES\n"
            "before = sorted(DEVICES)\n"
            "key = device_key('Tesla P100 (Pascal)')\n"
            "from repro.devices import default_registry\n"
            "default_registry()\n"
            "print(json.dumps([before, sorted(DEVICES), key]))\n")])
        assert proc.returncode == 0, proc.stderr
        before, after, key = json.loads(proc.stdout)
        assert before == after == sorted(d for d, _ in DIGESTS.values())
        assert key == "Tesla P100 (Pascal)@d3a85b2596ca"

    def test_serve_offers_every_device(self):
        """``--device`` offers the whole catalogue in a fresh process,
        the Pascal profile included."""
        proc = run_python(["-m", "repro", "serve", "--device",
                           "Tesla P100 (Pascal)", "--duration", "0.2",
                           "--rate", "200", "--json"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["stats"]["completed"] > 0


class TestLoader:
    @pytest.fixture
    def catalogue(self, tmp_path):
        for path in PROFILE_DIR.glob("*.json"):
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def edit(self, path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    def test_loads_the_shipped_specs(self, catalogue):
        assert dict(load_catalogue(catalogue)) == dict(DEVICES)

    def test_damaged_field_names_file_and_field(self, catalogue):
        self.edit(catalogue / "k40c.json",
                  lambda doc: doc["spec"].pop("sm_count"))
        with pytest.raises(ProfileValidationError) as exc:
            load_catalogue(catalogue)
        assert "k40c.json" in str(exc.value)
        assert exc.value.errors == ["spec.sm_count: missing"]

    @pytest.mark.parametrize("value", [20.5, float("inf"), True, "15"])
    def test_non_integral_count_rejected(self, catalogue, value):
        self.edit(catalogue / "m40.json",
                  lambda doc: doc["spec"].update(sm_count=value))
        with pytest.raises(ProfileValidationError,
                           match=r"m40\.json.*spec\.sm_count"):
            load_catalogue(catalogue)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_unusable_rate_rejected(self, catalogue, value):
        self.edit(catalogue / "k40c.json",
                  lambda doc: doc["spec"].update(memory_bandwidth=value))
        with pytest.raises(ProfileValidationError,
                           match=r"k40c\.json.*spec\.memory_bandwidth"):
            load_catalogue(catalogue)

    def test_unreadable_document_rejected(self, catalogue):
        (catalogue / "pascal.json").write_text("{not json")
        with pytest.raises(ProfileValidationError, match=r"pascal\.json"):
            load_catalogue(catalogue)

    def test_missing_spec_section_rejected(self, catalogue):
        self.edit(catalogue / "k20x.json", lambda doc: doc.pop("spec"))
        with pytest.raises(ProfileValidationError,
                           match=r"k20x\.json.*spec: expected object"):
            load_catalogue(catalogue)

    def test_duplicate_display_name_rejected(self, catalogue):
        shutil.copy(catalogue / "k40c.json", catalogue / "k40c-copy.json")
        with pytest.raises(ProfileValidationError, match="already"):
            load_catalogue(catalogue)

    def test_empty_or_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ProfileValidationError, match="no \\*.json"):
            load_catalogue(tmp_path)
        with pytest.raises(ProfileValidationError, match="no \\*.json"):
            load_catalogue(tmp_path / "absent")


@pytest.mark.parametrize("damage, named", [
    (lambda d: (d / "k20x.json").unlink(), ["profiles'", "'Tesla K20X'"]),
    (lambda d: (d / "k40c.json").write_text(
        (d / "k40c.json").read_text().replace('"sm_count": 15,', "")),
     ["k40c.json", "spec.sm_count: missing"]),
])
def test_damaged_catalogue_fails_the_import(tmp_path, damage, named):
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    damage(tmp_path / "repro" / "devices" / "profiles")
    proc = run_python(["-c", "import repro"], pythonpath=str(tmp_path))
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("repro.errors.ProfileValidationError: ")
    for text in named:
        assert text in last


def test_built_install_ships_the_catalogue(tmp_path):
    """A non-editable build carries the profile documents, so the
    package imports and validates from outside the checkout."""
    pytest.importorskip("setuptools", minversion="61")
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    build = run_python(["setup.py", "-q", "build", "--build-base", "out"],
                       cwd=tmp_path)
    assert build.returncode == 0, build.stderr
    lib = tmp_path / "out" / "lib"
    shipped = sorted(p.name for p in
                     (lib / "repro" / "devices" / "profiles").glob("*.json"))
    assert shipped == sorted(p.name for p in PROFILE_DIR.glob("*.json"))
    outside = tmp_path / "elsewhere"
    outside.mkdir()
    run = run_python(["-m", "repro", "devices", "--validate"], cwd=outside,
                     pythonpath=str(lib))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "5 profile(s) registered" in run.stdout
