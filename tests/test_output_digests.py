"""Byte-identity gate: sha256 digests of CLI stdout.

The digests were recorded from the scalar GoldenInt implementation before
fragments moved to int64 coefficient arrays; ``compare --n 5`` and
``line --n 12 --format csv`` were recorded before the cut-and-project sets
moved from float-bounded scans to the exact integer box scan, and
``line --n 20 --format json`` before the growth levels were computed in
one pass over L(n).  The five model-group digests at n >= 3 (h3 n=3 csv
and json, h4 n=3 csv with and without ``--normalize false``, a2 n=6 json)
were recorded before the Cartesian coordinates and the CSV/JSON rows were
computed on the coefficient array and written in chunks.  ``compare --n 12``
and the ``verify`` report with every ``elapsed`` dropped were recorded
before the planar cut-and-project layer moved to int64 cyclotomic rows and
the minimum distances were decided exactly.  ``line --n 200``
(``LINE_CAP``), the output with the most float near-ties in its sort, was
recorded in json and csv before the 1D section moved to int64 rows.
``generate --group h4 --n 3 --format json`` (every H4 orbit pattern) and
``generate --group h2 --n 10 --format svg`` (the benchmark's SVG) were
recorded before fragments were held as packed keys and orbits, shells and
the writers ran on slabs of rows.  ``generate --group a2 --n 12`` in csv
and json (469 points, four coordinates whose c * 1e12 lies within one ulp
of a half-integer) was recorded before the writers printed decimal text
from int64 digit tables.  ``generate --group h2 --n 10 --format json``
(1,571 orbits, 738 shells) and ``generate --group h3 --n 5 --format json``
(320 orbits, 182 shells) were recorded before orbits and shells became
counted records, with each shell's size counted from the row labels.
``generate --group h4 --n 5 --format csv`` (1,600,441 points, 130 MB of
text) was recorded while ``generate`` still expanded the fragment with a
frontier closure; it is hashed as it is written and has no ``CHUNK_ROWS``
= 7 copy.  ``generate --group h2 --n 20 --format svg`` (221,551 points
and 9,008 shells, so the colours wrap) and ``generate --group h4 --n 4
--format json`` were recorded before orbits and shells were read off the
dominant rows that ``generate`` holds; they too are hashed as they are
written, with no ``CHUNK_ROWS`` = 7 copy.  ``generate --group h2 --n 16
--format json`` (93,161 points; its 9,389 orbits and 3,978 shells span ten
and four chunks of ``CHUNK_ROWS``) was recorded, hashed as it is written,
before the orbits/shells tail was written chunk by chunk.  ``generate
--group h2 --n 24 --format svg --normalize false`` (451,501 points) was
recorded, hashed as it is written, while the SVG writer still kept every
chunk's Cartesian rows until it knew the scale.  ``generate --group h3
--n 8 --format csv`` (373,789 points; N(det A) = 4) was recorded, hashed
as it is written, while ``kernel.cartesian_rows`` still reduced every
alpha coordinate by its gcd with N(det A).  Any change to a rendered byte
(point order, a float digit, JSON layout) fails here.
"""

import hashlib
import json

import pytest

from quasih import serialize
from quasih.cli import main

DIGESTS = (
    ("generate --group a2 --n 0 --format csv", "f1cbea90d96165a5cc90ba5673c72e778a33c12d3e204019b4defd94f4fda404"),
    ("generate --group a2 --n 0 --format json", "190c7fdd344dde9c8d9445c0f96b61db7bfd9a2b92dc782477790c3173529f09"),
    ("generate --group a2 --n 1 --format csv", "f961b479434fdbdfbf0e4dfa696364947edc2acf3faff7785f4e5fb3989c89dd"),
    ("generate --group a2 --n 1 --format json", "3ed7a7b7ffabf2e49a216e642a974ac4500cdcaba957599f7b74fb7241882f34"),
    ("generate --group a2 --n 2 --format csv", "a861cb5afc9ec2f660f586d9344445ab0e1887751440a5ec96ebf8308e72e866"),
    ("generate --group a2 --n 2 --format json", "213a251d6481897c326b20e470d13aaf0db5e10fba5021b28c65c4140d8fbba0"),
    ("generate --group h2 --n 0 --format csv", "f1cbea90d96165a5cc90ba5673c72e778a33c12d3e204019b4defd94f4fda404"),
    ("generate --group h2 --n 0 --format json", "00d1a2ecc7b78bdccdb231e822f8038f636e02edd789e71238c211fbec4567b2"),
    ("generate --group h2 --n 1 --format csv", "d746abf753efc1343658fd694691150c886ce709bad1e7c8d6429bf00898fc74"),
    ("generate --group h2 --n 1 --format json", "ced38dac40b1f5c3d1c0f07714bfa60b448d39ef553be7e0ddef1fd72bc6abdc"),
    ("generate --group h2 --n 2 --format csv", "7c47778ad058008bb08a113e507a47f7599df15aa222a047866f5c83290cf088"),
    ("generate --group h2 --n 2 --format json", "d0a3b2dea4c46f1d4f5c5c63f84a2bcb5f609e5ec7a102c3e51efe64e5cf327c"),
    ("generate --group h3 --n 0 --format csv", "286844e20a71a3e23abbf6fd4a1569dd376c8d4edc0741f9b94d4ec3f9f9be19"),
    ("generate --group h3 --n 0 --format json", "b1955a86085fd736b3d635f7b67a9378cb965188346788385c9f764ed1b0dde9"),
    ("generate --group h3 --n 1 --format csv", "5cf4db2f24ef1b0d3d4e1af18a21beb187a6c047b7ed234186f72e162a9cf6ae"),
    ("generate --group h3 --n 1 --format json", "e56c635817714633efab63978a45617fdc9396319c4c3ba76eadc88c488fb0a3"),
    ("generate --group h3 --n 2 --format csv", "8bee215bf2cd67dcbd50c01667cffa90523664d58ad73cab9a7c170e57789a5a"),
    ("generate --group h3 --n 2 --format json", "a692899bc71e24937280ba972923b9992c87bde7608773c4eff527dbb65694fc"),
    ("generate --group h4 --n 0 --format csv", "3cdf4b8d5eefb3537f67637d39e900b133eea135e2eb5cc5286d064fa2a5a999"),
    ("generate --group h4 --n 0 --format json", "88afd8a0df39de4c85d73aa33aa2e349a7f4dbb481ccd6a042215ee8eb8242e1"),
    ("generate --group h4 --n 1 --format csv", "3eaf012ad174feaef944095ed83afb54e20af5cd005292277407ad59bda665de"),
    ("generate --group h4 --n 1 --format json", "f3dd5cc752e6e6cd33062363eecbfd7609d54d76bf10d0b71d1c5026b547468e"),
    ("generate --group h4 --n 2 --format csv", "5f710211439f23db2ec3ad5bfdccb6464d5c290e4adb322b0e049d9062516010"),
    ("generate --group h4 --n 2 --format json", "327979da0b315e76344b142629ed4f66cafa17d03c16cf8d44eb7000b6d15bea"),
    ("generate --group h2 --n 0 --format svg", "1d3ac75f2183d815e1264914ce83504e3e5bb8b45ff3bb3f6507c5e6cbdfb1be"),
    ("generate --group h2 --n 1 --format svg", "63d4d7cc0fbb09f709c7bb24295f2031be398c3a48c5f8c7a7e54a0da9e1824c"),
    ("generate --group h2 --n 2 --format svg", "26937fdeda6a92710242d4578359fb5f3fc1471f5e62fb7a50d5027608e1df4a"),
    ("generate --group h2 --n 3 --format svg", "7dd10d833000dd2519a08d1af70cafe911d539cc09d1823d8f985289c741af84"),
    ("generate --group h2 --n 2 --normalize false", "3862249959bdcb00924312569c59e5d8fced0f40e19979c382852cd035cab7c9"),
    ("generate --group h2 --n 2 --format svg --normalize false", "26937fdeda6a92710242d4578359fb5f3fc1471f5e62fb7a50d5027608e1df4a"),
    ("line --n 6 --format json", "a56e671c976a0edd21faffbc832fb9870df03a3a42b829f43e46b2257617b5f8"),
    ("line --n 6 --format csv", "e1cca240b17d8e7b73ab5069bdef867bdda7d91320e415fe374560d4ea98c471"),
    ("compare --n 3", "3a0a6e2e680a1fe6d2de1d0fb8a3c4d850aa1535c10f1386f6b0dd53cde02d17"),
    ("compare --n 5", "c8fb873f4b45c8bddcadca227baf64fb5f54d663f4a38ae00fb44a8088877ace"),
    ("line --n 12 --format csv", "37367c6c5663f36165bed1b178d107365394e72a5cc2dc48c92570d4e87a0a49"),
    ("line --n 20 --format json", "bb7b7a9902e21e3fca7be7d80e6ec0df1adf980de856377760e06a9bf4e6ff80"),
    ("generate --group h3 --n 3 --format csv", "b82ccda4b9e85bab38d8f57a5b7ab52623817c0e75f1e9238a3c0a7af39978cf"),
    ("generate --group h3 --n 3 --format json", "2436d1d0d4893edd67eeca3d99f625ffac7bb1b8a2085bf23619e5fe9fda6b05"),
    ("generate --group h4 --n 3 --format csv", "11ac2bde8dc72598ac2ab03d16f8e52e7cc8211b716099937c5f38cd9e666364"),
    ("generate --group h4 --n 3 --format csv --normalize false", "11ac2bde8dc72598ac2ab03d16f8e52e7cc8211b716099937c5f38cd9e666364"),
    ("generate --group a2 --n 6 --format json", "4754a0ba941fd51da6ccfb27ac59ca2a69c858e1f5d89045531aa3ad01a0be38"),
    ("compare --n 12", "f74b19cedf417883ecce5ee6602f81f679e5a7f58c0813b64768785ee75c6ef6"),
    ("line --n 200 --format json", "e1ef070a1e176125413e08900b73773793a858431c52de28820312aa40e2671d"),
    ("line --n 200 --format csv", "e671130d3411eb5cc67531fb6d8a88ea6cb845b1ff5fee81667d40a729084731"),
    ("generate --group h4 --n 3 --format json", "59e907756f07b7f26cbc45dd7a0f31c5b2080a63410761a71ccacafb5fa523e4"),
    ("generate --group h2 --n 10 --format svg", "7a41bbcb38a1b0f93ff3b68fb263a50aee615437834abeb7e6b376e271a3083b"),
    ("generate --group a2 --n 12 --format csv", "44e5d9c5ac5b4c0b522b66d35b5340ae461b07a6ad272d718420e0744acee024"),
    ("generate --group a2 --n 12 --format json", "28689009408906e18482cc5e1d73b9fc37791b40cd6436478f7abe8dcae054f4"),
    ("generate --group h2 --n 10 --format json", "196cce3d57b2d802581b9094486907ac8165f971641ac515ee15f88c02aa2ff6"),
    ("generate --group h3 --n 5 --format json", "c8a74153e899af7267f76d87a4dc3c729d461e1b9913494ba449cb46e363175c"),
)

# sha256 of the ``verify`` report with every ``elapsed`` key dropped, dumped
# with sorted keys: it holds the ``min_dists_2d`` floats and the ``psd`` counts.
VERIFY_DIGEST = "1b3a4f42bf32bb2e114c0af0e2970391e76ac56c0090d0fb1d4cdc28f56236ef"


LARGE_DIGEST = (
    "generate --group h4 --n 5 --format csv",
    "8011144e32d72ec0f59b731bea5dbd937634b8e21ecd4cee9646244d9a3fb9d1",
)

STREAMED_DIGESTS = (
    ("generate --group h2 --n 20 --format svg", "9751c304360ab683e7701ac389be663e7b7ff13c7d0518fdf31dc0b1062817a9"),
    ("generate --group h4 --n 4 --format json", "50cf9e65fcc080dfb501551e5008dac4a272747d6857850fbc0b787bf6a95858"),
    ("generate --group h2 --n 16 --format json", "a015feab42e744372abebafe1f14edd8faaf9858013625afb394f6fe4e6ed109"),
    ("generate --group h2 --n 24 --format svg --normalize false",
     "1b3f53736e07bb55e70cbe5933d9b3f4b23497f3edc8299bcdd75e11eecbb17d"),
    ("generate --group h3 --n 8 --format csv", "714a52d9b13b2dd6cae6103ae07d26ff1b5b2cb30f2bc801949e94be2ee17b59"),
)


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=[argv for argv, _ in DIGESTS])
def test_stdout_digest(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_stdout_digest(hashed_main):
    argv, digest = LARGE_DIGEST
    assert hashed_main(argv.split()) == (0, digest)


@pytest.mark.parametrize("argv,digest", STREAMED_DIGESTS, ids=[argv for argv, _ in STREAMED_DIGESTS])
def test_streamed_stdout_digest(hashed_main, argv, digest):
    assert hashed_main(argv.split()) == (0, digest)


def _drop_elapsed(x):
    if isinstance(x, dict):
        return {k: _drop_elapsed(v) for k, v in x.items() if k != "elapsed"}
    if isinstance(x, list):
        return [_drop_elapsed(v) for v in x]
    return x


def test_verify_report_digest(capsys):
    code = main(["verify"])
    captured = capsys.readouterr()
    # the H3 table finding fails ``cartan-tables`` by design
    assert code == 2
    assert captured.err == "verification failed: cartan-tables\n"
    report = _drop_elapsed(json.loads(captured.out))
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGEST


CHUNKED = [(argv, digest) for argv, digest in DIGESTS if argv.startswith(("compare", "generate", "line"))]


@pytest.mark.parametrize("argv,digest", CHUNKED, ids=[argv for argv, _ in CHUNKED])
def test_small_chunks_keep_the_digest(capsys, monkeypatch, argv, digest):
    # 7 rows a chunk: chunk boundaries, the negative-zero fix and the JSON
    # separators between chunks all land inside these outputs (for compare,
    # the deficiency list; for line, the values and deficiencies; for svg,
    # the circles; for json, the points, orbits and shells)
    monkeypatch.setattr(serialize, "CHUNK_ROWS", 7)
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
