from conftest import run_python


def test_no_scipy_module_loaded_by_import_or_afe_runs():
    code = (
        "import contextlib, io, sys\n"
        "import fracmoment\n"
        "from fracmoment.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = {'import': scipy_modules()}\n"
        "for argv in (['verify', 'afe', '--qmin', '5', '--qmax', '13'], ['moments', '--q', '1009', '--method', 'afe']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen[' '.join(argv)] = (code, scipy_modules())\n"
        "print(seen)\n"
    )
    assert run_python(code).stdout.strip() == (
        "{'import': [], 'verify afe --qmin 5 --qmax 13': (0, []), 'moments --q 1009 --method afe': (0, [])}"
    )
