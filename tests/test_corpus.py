"""The conformance corpus (`corpus.py`): its inputs, and a seeded sample of
its argvs run in-process."""

from __future__ import annotations

import corpus


def test_corpus_covers_its_inputs():
    files = corpus.matrix_files()
    argvs = corpus.argvs(files)
    assert argvs == corpus.argvs(corpus.matrix_files())
    sizes = {len(payload["matrix"]) for payload, _ in files.values()}
    assert sizes == {1, 2, 3}
    assert {(p["symmetry_order"], p["dimension"]) for p, _ in files.values()} == \
        {(1, 1), (1, 2), (2, 1), (2, 2)}
    # every primitive 2x2 matrix with entries <= 2 has theta of degree <= 2
    assert sum(len(p["matrix"]) == 2 for p, _ in files.values()) == 4 * 32
    assert sum(len(p["matrix"]) == 3 for p, _ in files.values()) == 4 * corpus.THREE_BY_THREE
    assert {field for _, field in files.values()} >= {"rational", "quadratic:2", "quadratic:5"}
    assert len(argvs) == (6 + len(files)) * len(corpus.S_VALUES) * 6
    assert {argv[0] for argv in argvs} == {"spectrum", "verify", "dense", "strip", "zeta"}


def test_corpus_sample_exits_cleanly(tmp_path, monkeypatch):
    # no traceback, and only the documented exit codes: 0, 1 for a failed
    # verification and 2 for a refused input
    files = corpus.matrix_files()
    corpus.write_files(files, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    codes = set()
    for argv in corpus.sample(corpus.argvs(files), 400, seed=7):
        _, err, code = corpus.run(argv)
        assert code in (0, 1, 2), (argv, err)
        codes.add(code)
    assert codes >= {0, 2}
