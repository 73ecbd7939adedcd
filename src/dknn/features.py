"""Text featurization: hashing trick (default) or tf-idf bag of words.

Tokenization is fixed so two runs agree byte for byte: split on Unicode
whitespace, strip leading/trailing ASCII punctuation, drop empty tokens,
lowercase (unless disabled). Hashing uses 64-bit FNV-1a over the UTF-8 bytes
of each token; output vectors are L2-normalized when nonzero.

A block of texts takes its counts from one sort of its (row, column) keys. A
row's norm sums its squares left to right in ascending column order, a fixed
order, so tf-idf values do not depend on the BLAS kernel.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .exceptions import ValidationError

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

DEFAULT_HASH_DIM = 4096
FEATURIZE_BLOCK = 256  # texts per block of transform_rows; no bit depends on it
MAX_PIECES = 1 << 16  # pieces a featurizer's piece map holds before it starts over


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash. Strings are hashed as UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def _token(raw: str, lowercase: bool) -> str:
    """The token of one whitespace piece; empty if the piece is dropped."""
    tok = raw.strip(string.punctuation)
    return tok.lower() if lowercase else tok


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    return [tok for tok in (_token(raw, lowercase) for raw in text.split()) if tok]


class _PieceColumns(dict):
    """Whitespace piece -> column (-1: token dropped or unknown), mapped on its
    first read, so ``map`` over ``__getitem__`` stays in C for every repeat. A
    memo of a pure function: it starts over at MAX_PIECES pieces, and a thread
    that races another's ``clear`` just recomputes a column."""

    __slots__ = ("lowercase", "dim", "vocabulary")

    def __init__(self, featurizer: "Featurizer") -> None:
        self.lowercase, self.dim = featurizer.config.lowercase, featurizer.dim
        self.vocabulary = featurizer.vocabulary if featurizer.config.mode == "tfidf" else None

    def __missing__(self, raw: str) -> int:
        tok = _token(raw, self.lowercase)
        if not tok:
            col = -1
        elif self.vocabulary is None:
            col = fnv1a64(tok) % self.dim
        else:
            col = self.vocabulary.get(tok, -1)
        if len(self) >= MAX_PIECES:
            self.clear()
        self[raw] = col
        return col


def take_rows(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray], idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(row_ptr, cols, vals)`` of the rows ``idx`` of ``rows``, in that
    order, with the new row_ptr starting at 0."""
    row_ptr, cols, vals = rows
    idx = np.asarray(idx)
    starts = row_ptr[idx]
    lengths = row_ptr[idx + 1] - starts
    new_ptr = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_ptr[1:])
    # storage position of every entry of the selected rows, row by row
    pos = np.repeat(starts - new_ptr[:-1], lengths)
    pos += np.arange(len(pos))
    return new_ptr, cols[pos], vals[pos]


@dataclass(frozen=True)  # a featurizer's piece map is built from it once
class FeaturizerConfig:
    mode: str = "hashing"  # "hashing" | "tfidf"
    dim: int = DEFAULT_HASH_DIM  # hashing dimension; ignored by tfidf
    lowercase: bool = True

    def validate(self) -> None:
        if self.mode not in ("hashing", "tfidf"):
            raise ValidationError(f"unknown featurizer mode {self.mode!r}")
        # the checkpoint header stores F as u32
        if not 1 <= self.dim < 2**32:
            raise ValidationError(f"featurizer dim must be in [1, 2^32), got {self.dim}")


@dataclass
class Featurizer:
    """Immutable text-to-vector transform; safe to share across threads."""

    config: FeaturizerConfig
    vocabulary: dict[str, int] = field(default_factory=dict)  # tfidf only
    idf: np.ndarray = field(default_factory=lambda: np.zeros(0))  # tfidf only
    _columns: _PieceColumns = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._columns = _PieceColumns(self)

    @property
    def dim(self) -> int:
        if self.config.mode == "hashing":
            return self.config.dim
        return len(self.vocabulary)

    def transform_rows(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature rows of ``texts`` as CSR ``(row_ptr, cols, vals)``.

        Row i keeps its nonzero columns ``cols[row_ptr[i]:row_ptr[i + 1]]`` in
        ascending order, with their values. A whitespace piece is tokenized
        and mapped to a column on its first read into the piece map. Blocks of
        FEATURIZE_BLOCK texts bound the work arrays; one text is a block of
        one row. A row's bits depend only on its own text, so any split of
        ``texts`` gives the same rows.
        """
        if len(texts) <= FEATURIZE_BLOCK:  # one block, returned without a copy
            return self._block_rows(texts)
        ptrs, cols, vals = zip(*[self._block_rows(texts[lo:lo + FEATURIZE_BLOCK])
                                 for lo in range(0, len(texts), FEATURIZE_BLOCK)])
        row_ptr = np.cumsum(np.concatenate([[0], *map(np.diff, ptrs)]))
        return row_ptr, np.concatenate(cols), np.concatenate(vals)

    def _block_rows(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """transform_rows of one block: every piece's column, one sort of the
        (row, column) keys for the counts, one bincount for the norms."""
        dim, n = self._columns.dim, len(texts)
        pieces = list(map(str.split, texts))
        col = np.fromiter(map(self._columns.__getitem__, chain.from_iterable(pieces)), np.int64)
        key = np.arange(0, n * dim, dim).repeat(np.fromiter(map(len, pieces), np.int64, n))
        key += col
        key = key[col >= 0]
        key.sort()
        run = np.empty(len(key) + 1, dtype=bool)  # run starts of equal keys, then the end
        run[0] = run[-1] = True
        np.not_equal(key[1:], key[:-1], out=run[1:-1])
        at = run.nonzero()[0]
        row, cols = np.divmod(key[at[:-1]], dim)
        row_ptr = row.searchsorted(np.arange(n + 1))
        vals = (at[1:] - at[:-1]).astype(np.float64)  # the counts
        if self.config.mode == "tfidf":
            vals *= self.idf[cols]
        # each row's squares summed left to right, in ascending column order
        norm = np.sqrt(np.bincount(row, weights=vals * vals, minlength=n))
        vals /= norm[row]
        return row_ptr, cols, vals

    def transform(self, text: str) -> np.ndarray:
        """Feature vector for one text: the 1-row case of transform_many."""
        return self.transform_many([text])[0]

    def transform_many(self, texts: list[str]) -> np.ndarray:
        """Stack of transform() rows, shape (len(texts), dim)."""
        row_ptr, cols, vals = self.transform_rows(texts)
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        out[np.repeat(np.arange(len(texts)), np.diff(row_ptr)), cols] = vals
        return out

    def to_dict(self) -> dict:
        d = {
            "mode": self.config.mode,
            "dim": self.config.dim,
            "lowercase": self.config.lowercase,
        }
        if self.config.mode == "tfidf":
            # vocabulary is sorted, so listing tokens in index order is lossless
            tokens = sorted(self.vocabulary, key=self.vocabulary.__getitem__)
            d["vocabulary"] = tokens
            d["idf"] = [float(x) for x in self.idf]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Featurizer":
        fields = d["mode"], d["dim"], d["lowercase"]
        if tuple(map(type, fields)) != (str, int, bool):
            raise ValidationError("featurizer mode, dim, lowercase must be str, int, bool")
        cfg = FeaturizerConfig(*fields)
        cfg.validate()
        if cfg.mode == "tfidf":
            tokens = d["vocabulary"]
            if type(tokens) is not list or not tokens or not all(type(t) is str for t in tokens):
                raise ValidationError("tfidf vocabulary must be a non-empty list of strings")
            vocab = {tok: i for i, tok in enumerate(tokens)}
            idf = np.asarray(d["idf"], dtype=np.float64)
            if len(vocab) != len(tokens):
                raise ValidationError("tfidf vocabulary has duplicate tokens")
            if idf.shape != (len(tokens),):
                raise ValidationError(
                    f"tfidf idf has shape {idf.shape} for {len(tokens)} vocabulary tokens"
                )
            # fit_featurizer's idf is at least 1, so no row's squares underflow
            if not np.all(np.isfinite(idf) & (idf >= 1.0)):
                raise ValidationError("tfidf idf entries must be finite and at least 1")
            return cls(cfg, vocab, idf)
        return cls(cfg)


def fit_featurizer(corpus: list[str], config: FeaturizerConfig) -> Featurizer:
    """Build a featurizer. Hashing ignores the corpus; tf-idf fits df/idf on it.

    tf-idf uses idf_t = ln((1+N)/(1+df_t)) + 1 with the vocabulary sorted
    lexicographically for determinism.
    """
    config.validate()
    if config.mode == "hashing":
        return Featurizer(config)
    df: dict[str, int] = {}
    for text in corpus:
        for tok in set(tokenize(text, config.lowercase)):
            df[tok] = df.get(tok, 0) + 1
    if not df:
        raise ValidationError("tfidf featurizer: no training text yields a token")
    vocab = {tok: i for i, tok in enumerate(sorted(df))}
    n_docs = len(corpus)
    idf = np.empty(len(vocab), dtype=np.float64)
    for tok, i in vocab.items():
        idf[i] = np.log((1.0 + n_docs) / (1.0 + df[tok])) + 1.0
    return Featurizer(config, vocab, idf)
