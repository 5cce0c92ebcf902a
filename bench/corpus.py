"""Seeded corpus generator for the pipeline benchmark.

``generate(workload, seed, root)`` writes only what the program reads (report
``.txt`` and ``.meta`` files, one analysis document per hash, a denylist and
the pipeline config) and returns a :class:`Corpus` holding the ground truth it
planted: indicators per report, the analysis documents and dropped-hash graph,
hub values, near-duplicate name pairs and the path queries with whether each
pair is connected.

Aggregate sizes (report count, text volume, how many reports each shared value
sits in, graph shape) are fixed per workload and size; the seed decides the
values themselves and which reports they land in.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("hub_corpus", "near_duplicates", "slow_provider")

# "tiny" keeps every workload's structure but runs each round in seconds; it
# is what the benchmark's own smoke test uses.
SIZES = {
    "hub_corpus": {
        "full": dict(reports=200, islands=4, min_kb=4, max_kb=40, queries=4),
        "tiny": dict(reports=16, islands=2, min_kb=1, max_kb=4, queries=4),
    },
    "near_duplicates": {
        "full": dict(reports=36, islands=2, bases=6, names=3, queries=4),
        "tiny": dict(reports=10, islands=2, bases=3, names=3, queries=4),
    },
    "slow_provider": {
        "full": dict(reports=30, islands=2, pool=60, queries=4, delay_ms=10, fail_share=0.1),
        "tiny": dict(reports=6, islands=2, pool=12, queries=4, delay_ms=10, fail_share=0.1),
    },
}

# Values the denylist removes; planted into analysis documents so that filter
# has work to do on every workload.
DENYLIST = (("filename", "*.tmp"), (None, "desktop.ini"), ("filename", "kernel32.dll"))  # (type scope, glob)
DENIED_FILENAMES = ("cache_0.tmp", "desktop.ini", "kernel32.dll")

API_KEY_ENV = "CTIPIPE_BENCH_API_KEY"

_WORDS = (
    "actor analysis attacker campaign command control credential defense "
    "delivery dropper espionage exfiltration exploit family implant incident "
    "infrastructure intrusion lateral loader malware network operator payload "
    "persistence phishing reconnaissance sample server stage target telemetry "
    "toolkit victim access archive beacon channel cluster configuration "
    "document domain encryption endpoint finding group indicator keylogger "
    "module observed operation packer platform process registry report "
    "researcher resource routine scanner script sector service session "
    "signature spear staging system task technique threat traffic update "
    "variant vector vulnerability weaponized workstation the and with from "
    "into over after before during while which their these those that this "
    "was were has had been also further later initially subsequently"
).split()

_SYLLABLES = (
    "ka ro mi tsu ne la vo ri san del por tek vin zul mar bex cor dan fel gor "
    "hal jin kel lom nor pex qui rus sol tam ulm ver wes xan yor zed"
).split()

_TLDS = ("com", "net", "org", "info", "biz")
_EXTS = ("exe", "dll", "doc", "scr", "js")


@dataclass
class Report:
    name: str          # file stem; sorted stems give store order
    title: str
    date: dt.date
    indicators: set[tuple[str, str]]   # (attribute type, value) planted in the text
    seeds: list[str]   # hashes in the text, the enrichment seeds
    island: bool = False


@dataclass
class Corpus:
    root: Path
    config_path: Path
    reports: list[Report]
    docs: dict[str, dict]            # hash -> analysis document
    depth: int
    fuzzy: bool
    threshold: float
    noise_threshold: float
    hubs: list[str] = field(default_factory=list)
    near_pairs: list[tuple[str, str, str]] = field(default_factory=list)  # (type, a, b)
    queries: list[tuple[int, int, bool]] = field(default_factory=list)    # (id a, id b, connected)
    fail_first: set[str] = field(default_factory=set)
    delay_ms: float = 0.0
    denylist: list[tuple[str | None, str]] = field(default_factory=list)


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def unique(self, make) -> str:
        while True:
            value = make()
            if value not in self.used:
                self.used.add(value)
                return value

    def md5(self) -> str:
        return self.unique(lambda: f"{self.rng.getrandbits(128):032x}")

    def sha256(self) -> str:
        return self.unique(lambda: f"{self.rng.getrandbits(256):064x}")

    def label(self, syllables: int = 3) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(syllables))

    def ip(self) -> str:
        r = self.rng
        return self.unique(lambda: f"{r.randint(11, 223)}.{r.randint(0, 255)}.{r.randint(0, 255)}.{r.randint(1, 254)}")

    def hostname(self) -> str:
        return self.unique(lambda: f"{self.label()}.{self.rng.choice(_TLDS)}")

    def url(self) -> str:
        return self.unique(
            lambda: f"http://{self.label()}.{self.rng.choice(_TLDS)}/{self.label(2)}/{self.label(2)}.php?id={self.rng.randint(1, 9999)}"
        )

    def email(self) -> str:
        return self.unique(lambda: f"{self.label(2)}.{self.label(2)}@{self.label()}.{self.rng.choice(_TLDS)}")

    def filename(self) -> str:
        return self.unique(lambda: f"{self.label()}.{self.rng.choice(_EXTS)}")

    def cve(self) -> str:
        return self.unique(lambda: f"CVE-{self.rng.randint(2010, 2018)}-{self.rng.randint(1000, 99999)}")

    def registry(self) -> str:
        return self.unique(lambda: f"HKLM\\Software\\{self.label(2).title()}\\{self.label(2).title()}")

    def pdb(self) -> str:
        return self.unique(lambda: f"C:\\build\\{self.label(2)}\\Release\\{self.label(2)}.pdb")

    def mutex(self) -> str:
        return self.unique(lambda: f"Global\\{self.label(2)}_{self.rng.randint(100, 999)}")

    def timestamp(self) -> str:
        day = dt.date(2011, 1, 1) + dt.timedelta(days=self.rng.randint(0, 8 * 365))
        return f"{day.isoformat()}T{self.rng.randint(0, 23):02d}:{self.rng.randint(0, 59):02d}:00Z"


def _zipf_counts(values: int, total: int, top: int) -> list[int]:
    """Occurrence counts for a pool of ``values`` values that sum to exactly
    ``total``: popularity falls off as 1/rank from ``top``, each value at
    least once. Fixed by the sizes alone, so sharing does not vary with the
    seed."""
    if not values <= total <= values * top:
        raise ValueError(f"cannot deal {total} occurrences over {values} values of at most {top}")
    counts = [top / (rank + 1) for rank in range(values)]
    scale = total / sum(counts)
    counts = [max(1, min(top, round(c * scale))) for c in counts]
    rank = 0
    while sum(counts) != total:
        step = 1 if sum(counts) < total else -1
        if 1 <= counts[rank % values] + step <= top:
            counts[rank % values] += step
        rank += 1
    return counts


def _deck(rng: random.Random, pool: list[str], total: int, top: int) -> list[str]:
    """``total`` draws from ``pool`` with fixed multiplicities, shuffled."""
    deck = [v for v, c in zip(pool, _zipf_counts(len(pool), total, top)) for _ in range(c)]
    rng.shuffle(deck)
    return deck


def _spread(rng: random.Random, pool: list[str], counts: list[int], slots: list[list[str]]) -> None:
    """Place value i into counts[i] distinct slots."""
    for value, count in zip(pool, counts):
        for index in rng.sample(range(len(slots)), min(count, len(slots))):
            slots[index].append(value)


def _defang(rng: random.Random, kind: str, value: str) -> str:
    if rng.random() < 0.5:
        return value
    if kind == "url":
        host, rest = value[len("http://"):].split("/", 1)
        return "hxxp://" + host.replace(".", "[.]") + "/" + rest
    if kind == "email":
        local, domain = value.split("@")
        return f"{local}[at]{domain.replace('.', '[.]')}"
    if kind in ("ip-src", "hostname"):
        return value.replace(".", "[.]")
    return value


_TEMPLATES = (
    "the operators relied on {} for staging",
    "analysis later tied the activity to {} as well",
    "telemetry shows {} in several intrusions",
    "the loader referenced {} during execution",
)


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 16))]
    return " ".join(words).capitalize() + "."


def _write_report_text(rng: random.Random, target_bytes: int, planted: list[tuple[str, str]]) -> str:
    """Filler prose of about ``target_bytes`` with each planted indicator in
    its own sentence. Filler has no digits, dots inside words or hex runs, so
    it yields no indicators of its own."""
    pool = [_sentence(rng) for _ in range(64)]
    body: list[str] = []
    size = 0
    while size < target_bytes:
        sentence = rng.choice(pool)
        body.append(sentence)
        size += len(sentence) + 1
    for kind, value in planted:
        template = rng.choice(_TEMPLATES)
        text = template[0].upper() + template[1:].format(_defang(rng, kind, value)) + " ."
        body.insert(rng.randint(0, len(body)), text)
    lines, line = [], []
    for sentence in body:
        line.append(sentence)
        if len(line) >= 6:
            lines.append(" ".join(line))
            line = []
    lines.append(" ".join(line))
    return "\n".join(lines) + "\n"


def _doc(gen: _Gen, md5: str, **lists) -> dict:
    document = {
        "md5": md5,
        "sha1": None,
        "sha256": gen.sha256(),
        "compile_timestamp": gen.timestamp(),
    }
    for name in ("filenames", "contacted_ips", "contacted_urls", "pdb_paths", "code_sign_serials",
                 "mutexes", "file_mappings", "strings", "dropped_hashes"):
        document[name] = list(lists.get(name, []))
    return document


def _report_meta(gen: _Gen, index: int) -> tuple[str, str, dt.date]:
    name = f"r{index:04d}_{gen.label(2)}"
    title = f"Report {index:04d}: {gen.label(2).title()} {gen.label(2).title()} campaign"
    date = dt.date(2012, 1, 1) + dt.timedelta(days=gen.rng.randint(0, 7 * 365))
    return name, title, date


def _island(gen: _Gen, index: int, docs: dict | None = None) -> tuple[Report, list[tuple[str, str]]]:
    """A report linked to nothing else: unique identity values only (never
    fuzzy-matched) and one hash, with an analysis of the same kind when
    ``docs`` is given, else without one."""
    name, title, date = _report_meta(gen, index)
    seed = gen.md5()
    if docs is not None:
        docs[seed] = _doc(gen, seed, contacted_ips=[gen.ip()])
    planted = [("md5", seed), ("ip-src", gen.ip()), ("ip-src", gen.ip())]
    return Report(name, title, date, set(planted), [seed], island=True), planted


def _hub_corpus(gen: _Gen, sizes: dict):
    rng = gen.rng
    total = sizes["reports"]
    normal = total - sizes["islands"]
    docs: dict[str, dict] = {}

    # Report-side values: hubs plus power-law pools, fixed occurrence counts.
    hub_host, hub_ip, hub_file = gen.hostname(), gen.ip(), gen.filename()
    hubs = [(hub_host, "hostname", 0.92), (hub_ip, "ip-src", 0.85), (hub_file, "filename", 0.6)]
    slots: list[list[tuple[str, str]]] = [[] for _ in range(normal)]
    for value, kind, share in hubs:
        for index in rng.sample(range(normal), int(share * normal)):
            slots[index].append((kind, value))
    per_report = {"ip-src": 6, "hostname": 5, "url": 4, "email": 2, "filename": 3, "vulnerability": 1, "registry": 1}
    make = {"ip-src": gen.ip, "hostname": gen.hostname, "url": gen.url, "email": gen.email,
            "filename": gen.filename, "vulnerability": gen.cve, "registry": gen.registry}
    for kind, count in per_report.items():
        pool_size = -(-normal * count // 3)
        counts = _zipf_counts(pool_size, normal * count, top=max(3, normal // 4))
        pool = [make[kind]() for _ in range(pool_size)]
        kind_slots: list[list[str]] = [[] for _ in range(normal)]
        _spread(rng, pool, counts, kind_slots)
        for index, values in enumerate(kind_slots):
            slots[index].extend((kind, v) for v in values)

    # Analysis values of the reports' own families are dealt from decks with
    # fixed multiplicities. Shared families carry values of their own, so
    # each of those sits in exactly as many event sets as its family.
    own_families = 2 * normal

    def has_second(index: int) -> bool:
        return index % 3 != 2  # every third family's second child has no analysis: missing

    seconds = sum(has_second(i) for i in range(own_families))
    draws = {
        "filenames": 3 * own_families + seconds,
        "contacted_ips": 3 * own_families + seconds,
        "contacted_urls": own_families,
        "mutexes": own_families,
        "pdb_paths": own_families + seconds,
    }
    pools = {
        "filenames": [gen.filename() for _ in range(draws["filenames"] // 4)] + list(DENIED_FILENAMES),
        "contacted_ips": [gen.ip() for _ in range(draws["contacted_ips"] // 3)],
        "contacted_urls": [gen.url() for _ in range(draws["contacted_urls"] // 2)],
        "mutexes": [gen.mutex() for _ in range(draws["mutexes"] // 2)],
        "pdb_paths": [gen.pdb() for _ in range(draws["pdb_paths"] // 2)],
    }
    decks = {name: _deck(rng, pool, draws[name], top=30) for name, pool in pools.items()}
    fresh = {"filenames": gen.filename, "contacted_ips": gen.ip, "contacted_urls": gen.url,
             "mutexes": gen.mutex, "pdb_paths": gen.pdb}

    def values(name: str, k: int, own: bool) -> list[str]:
        if not own:
            return [fresh[name]() for _ in range(k)]
        deck, picked = decks[name], []
        for _ in range(k):
            # Take the top card that this document does not hold yet.
            at = next(i for i in range(len(deck) - 1, -1, -1) if deck[i] not in picked)
            picked.append(deck.pop(at))
        return picked

    def family(seed: str, index: int, own: bool) -> None:
        """Depth-2 dropped-hash graph under ``seed`` with cycles: each child
        drops one hash back into the family and one new hash at depth 3."""
        children = [gen.md5(), gen.md5()]
        docs[seed] = _doc(gen, seed, filenames=values("filenames", 2, own), contacted_ips=values("contacted_ips", 2, own),
                          contacted_urls=values("contacted_urls", 1, own), mutexes=values("mutexes", 1, own),
                          dropped_hashes=children)
        for position, child in enumerate(children):
            if position == 1 and not has_second(index):
                continue
            back = seed if position == 0 else children[0]
            docs[child] = _doc(gen, child, filenames=values("filenames", 1, own),
                               contacted_ips=values("contacted_ips", 1, own),
                               pdb_paths=values("pdb_paths", 1, own), dropped_hashes=[back, gen.md5()])

    # One shared family per report; a few families recur in many reports.
    shared_seeds = [gen.md5() for _ in range(12)]
    for index, seed in enumerate(shared_seeds):
        family(seed, index, own=False)
    shared_of = [s for s, c in zip(shared_seeds, _zipf_counts(len(shared_seeds), normal, max(2, normal // 10)))
                 for _ in range(c)]
    rng.shuffle(shared_of)

    kb = [sizes["min_kb"] * (sizes["max_kb"] / sizes["min_kb"]) ** (i / max(1, total - 1)) for i in range(total)]
    rng.shuffle(kb)
    reports, texts = [], []
    for index in range(normal):
        name, title, date = _report_meta(gen, index)
        own = [gen.md5(), gen.md5()]
        for position, seed in enumerate(own):
            family(seed, 2 * index + position, own=True)
        seeds = own + [shared_of[index]]
        planted = list(dict.fromkeys(slots[index] + [("md5", s) for s in seeds]))
        rng.shuffle(planted)
        reports.append(Report(name, title, date, set(planted), seeds))
        texts.append(_write_report_text(rng, int(kb[index] * 1024), planted))
    for index in range(normal, total):
        report, planted = _island(gen, index)
        reports.append(report)
        texts.append(_write_report_text(rng, int(kb[index] * 1024), planted))
    return reports, texts, docs, [h for h, _, _ in hubs], []


def _variant(rng: random.Random, base: str) -> str:
    """``base`` with one letter, away from its ends, substituted."""
    chars = list(base)
    at = rng.randrange(1, len(chars) - 1)
    chars[at] = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz" if c != chars[at]])
    return "".join(chars)


def _near_duplicates(gen: _Gen, sizes: dict):
    """Hostnames, URLs and filenames that are typo variants of a few base
    names; exact sharing is rare."""
    rng = gen.rng
    total = sizes["reports"]
    normal = total - sizes["islands"]
    docs: dict[str, dict] = {}
    # Base names of one length, so LCS work does not vary with the seed.
    syllables = [s for s in _SYLLABLES if len(s) == 3]
    bases = [gen.unique(lambda: "".join(rng.choice(syllables) for _ in range(4))) for _ in range(sizes["bases"])]
    shared_ips = [gen.ip() for _ in range(3)]
    reports, texts, near_pairs = [], [], []
    first_variant: dict[tuple[str, str], str] = {}  # (type, base) -> first planted variant
    lengths = [2000 + 4000 * i // max(1, normal - 1) for i in range(normal)]
    rng.shuffle(lengths)
    for index in range(normal):
        name, title, date = _report_meta(gen, index)
        planted: list[tuple[str, str]] = []
        for slot in range(sizes["names"]):
            base = bases[(index + slot) % len(bases)]
            values = [
                ("hostname", gen.unique(lambda: f"{_variant(rng, base)}.{rng.choice(_TLDS[:3])}")),
                ("url", gen.unique(lambda: f"http://www.{_variant(rng, base)}.{rng.choice(_TLDS[:3])}"
                                           f"/{gen.label(2)}.php?id={rng.randint(1, 999)}")),
                ("filename", gen.unique(lambda: f"{_variant(rng, base)}.{rng.choice(_EXTS)}")),
            ]
            planted.extend(values)
            # Two one-substitution variants of one base share at least
            # len - 2 letters in order, so each is a planted near duplicate
            # of the first variant of its base.
            for data_type, value in values:
                first = first_variant.setdefault((data_type, base), value)
                if first != value:
                    near_pairs.append((data_type, first, value))
        planted.append(("ip-src", gen.ip()))
        planted.append(("ip-src", shared_ips[index % len(shared_ips)]))
        seed = gen.md5()
        planted.append(("md5", seed))
        base = bases[index % len(bases)]
        docs[seed] = _doc(gen, seed, filenames=[f"{_variant(rng, base)}.exe", DENIED_FILENAMES[index % 3]],
                          contacted_ips=[gen.ip()])
        rng.shuffle(planted)
        planted = list(dict.fromkeys(planted))
        reports.append(Report(name, title, date, set(planted), [seed]))
        texts.append(_write_report_text(rng, lengths[index], planted))
    for index in range(normal, total):
        report, planted = _island(gen, index)
        reports.append(report)
        texts.append(_write_report_text(rng, 3000, planted))
    return reports, texts, docs, [], near_pairs


def _slow_provider(gen: _Gen, sizes: dict):
    """Few local indicators, deep overlapping dropped-hash graphs: every hash
    in a layered pool drops two hashes from the next layer, so reports share
    subtrees and a depth-3 walk reaches many hashes."""
    rng = gen.rng
    total = sizes["reports"]
    normal = total - sizes["islands"]
    pool = sizes["pool"]
    layers = [[gen.md5() for _ in range(pool)] for _ in range(4)]
    docs: dict[str, dict] = {}
    ips = [gen.ip() for _ in range(40)]
    files = [gen.filename() for _ in range(40)] + list(DENIED_FILENAMES)
    for depth, layer in enumerate(layers):
        for position, hash_value in enumerate(layer):
            if depth + 1 < len(layers):
                nxt = layers[depth + 1]
                dropped = [nxt[(2 * position) % pool], nxt[(2 * position + 1) % pool]]
            else:
                dropped = [layers[0][position], gen.md5()]  # cycle back, plus one never queried
            docs[hash_value] = _doc(gen, hash_value, filenames=[files[(depth + position) % len(files)]],
                                    contacted_ips=[ips[(3 * depth + position) % len(ips)]],
                                    mutexes=[gen.mutex()], dropped_hashes=list(dict.fromkeys(dropped)))
    reports, texts = [], []
    for index in range(normal):
        name, title, date = _report_meta(gen, index)
        own = gen.md5()
        docs[own] = _doc(gen, own, filenames=[gen.filename()], contacted_ips=[gen.ip()],
                         dropped_hashes=[layers[1][(7 * index) % pool]])
        seeds = [own, layers[0][(3 * index) % pool]]
        planted = [("md5", s) for s in seeds] + [("ip-src", gen.ip()), ("hostname", gen.hostname())]
        reports.append(Report(name, title, date, set(planted), seeds))
        texts.append(_write_report_text(rng, 4000, planted))
    for index in range(normal, total):
        report, planted = _island(gen, index, docs)
        reports.append(report)
        texts.append(_write_report_text(rng, 3000, planted))
    return reports, texts, docs, [], []


@dataclass
class Walk:
    """One report's depth-bounded walk over the planted dropped-hash graph."""

    records: set[str]      # queried hashes that have an analysis
    missing: set[str]      # queried hashes without one
    discovered: set[str]   # dropped hashes outside the seed set, queried or not
    queried: set[str]

    @property
    def hashes(self) -> set[str]:
        return self.records | self.missing | self.discovered


def walk(docs: dict[str, dict], seeds: list[str], depth: int) -> Walk:
    """Breadth-first from the seeds at depth 1; a hash is queried once, and
    hashes first reached beyond ``depth`` are discovered but not queried."""
    seed_set = set(seeds)
    result = Walk(set(), set(), set(), set())
    frontier = seed_set
    for _ in range(depth):
        if not frontier:
            break
        result.queried |= frontier
        following: set[str] = set()
        for hash_value in frontier:
            document = docs.get(hash_value)
            if document is None:
                result.missing.add(hash_value)
                continue
            result.records.add(hash_value)
            for dropped in document["dropped_hashes"]:
                if dropped not in seed_set:
                    result.discovered.add(dropped)
                if dropped not in result.queried:
                    following.add(dropped)
        frontier = following
    return result


_BUILDERS = {"hub_corpus": _hub_corpus, "near_duplicates": _near_duplicates, "slow_provider": _slow_provider}


def _queries(rng: random.Random, reports: list[Report], count: int) -> list[tuple[int, int, bool]]:
    """Half connected pairs of ordinary reports, half pairs with an island.
    Report event ids follow sorted file order, starting at 1."""
    normal = [i + 1 for i, r in enumerate(reports) if not r.island]
    islands = [i + 1 for i, r in enumerate(reports) if r.island]
    queries = []
    for q in range(count):
        if q % 2 == 0:
            a, b = rng.sample(normal, 2)
            queries.append((a, b, True))
        else:
            queries.append((rng.choice(islands), rng.choice(normal), False))
    return queries


def write_config(corpus: Corpus, provider_url: str | None = None, max_workers: int = 2) -> None:
    lines = [
        "reports_dir = reports",
        "store_path = store/events.jsonl",
        "denylist = denylist.txt",
        f"depth_limit = {corpus.depth}",
        f"fuzzy_threshold = {corpus.threshold}",
        f"noise_threshold = {corpus.noise_threshold}",
        f"max_workers = {max_workers}",
    ]
    if provider_url is None:
        lines.append("provider = analyses")
    else:
        # Rate limit and backoff set so that neither ever binds.
        lines += [
            f"provider.base_url = {provider_url}",
            f"provider.api_key_env = {API_KEY_ENV}",
            "provider.rate_limit = 1000000",
            "retry_backoff = 0",
        ]
    corpus.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, root: Path, size: str = "full") -> Corpus:
    sizes = SIZES[workload][size]
    rng = random.Random(f"{workload}:{size}:{seed}")
    gen = _Gen(rng)
    reports, texts, docs, hubs, near_pairs = _BUILDERS[workload](gen, sizes)

    reports_dir = root / "reports"
    analyses_dir = root / "analyses"
    reports_dir.mkdir(parents=True)
    analyses_dir.mkdir()
    for report, text in zip(reports, texts):
        (reports_dir / f"{report.name}.txt").write_text(text, encoding="utf-8")
        (reports_dir / f"{report.name}.meta").write_text(
            f"title: {report.title}\ndate: {report.date.isoformat()}\nurl: https://reports.example/{report.name}\n",
            encoding="utf-8",
        )
    for hash_value, document in docs.items():
        (analyses_dir / f"{hash_value}.json").write_text(json.dumps(document), encoding="utf-8")
    (root / "denylist.txt").write_text(
        "# generated\n" + "".join(f"{scope}: {glob}\n" if scope else f"{glob}\n" for scope, glob in DENYLIST),
        encoding="utf-8",
    )

    fail_first: set[str] = set()
    if workload == "slow_provider":
        # A fixed share of the hashes that enrich requests.
        candidates = sorted(set().union(*(walk(docs, r.seeds, 3).queried for r in reports)))
        fail_first = set(rng.sample(candidates, math.ceil(sizes["fail_share"] * len(candidates))))
    corpus = Corpus(
        root=root,
        config_path=root / "pipeline.conf",
        reports=reports,
        docs=docs,
        depth={"hub_corpus": 2, "near_duplicates": 1, "slow_provider": 3}[workload],
        fuzzy=workload == "near_duplicates",
        threshold=0.8,
        noise_threshold=0.7,
        hubs=hubs,
        near_pairs=near_pairs,
        queries=_queries(rng, reports, sizes["queries"]),
        fail_first=fail_first,
        delay_ms=sizes.get("delay_ms", 0.0),
        denylist=list(DENYLIST),
    )
    if workload != "slow_provider":
        write_config(corpus)
    return corpus
