"""Text featurization: hashing trick (default) or tf-idf bag of words.

Tokenization is fixed so two runs agree byte for byte: split on Unicode
whitespace, strip leading/trailing ASCII punctuation, drop empty tokens,
lowercase (unless disabled). Hashing uses 64-bit FNV-1a over the UTF-8 bytes
of each token; output vectors are L2-normalized when nonzero.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

DEFAULT_HASH_DIM = 4096


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash. Strings are hashed as UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


# The vocabulary of a corpus repeats, so each token is hashed once per
# process while it stays among the most recent 65,536.
_token_hash = functools.lru_cache(maxsize=1 << 16)(fnv1a64)


def _token(raw: str, lowercase: bool) -> str:
    """One whitespace-delimited piece as a token; '' when it is dropped."""
    tok = raw.strip(string.punctuation)
    return tok.lower() if lowercase else tok


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    return [tok for tok in (_token(raw, lowercase) for raw in text.split()) if tok]


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


@dataclass
class FeaturizerConfig:
    mode: str = "hashing"  # "hashing" | "tfidf"
    dim: int = DEFAULT_HASH_DIM  # hashing dimension; ignored by tfidf
    lowercase: bool = True

    def validate(self) -> None:
        if self.mode not in ("hashing", "tfidf"):
            raise ValidationError(f"unknown featurizer mode {self.mode!r}")
        if self.dim < 1:
            raise ValidationError("featurizer dim must be positive")


@dataclass
class Featurizer:
    """Immutable text-to-vector transform; safe to share across threads."""

    config: FeaturizerConfig
    vocabulary: dict[str, int] = field(default_factory=dict)  # tfidf only
    idf: np.ndarray = field(default_factory=lambda: np.zeros(0))  # tfidf only

    @property
    def dim(self) -> int:
        if self.config.mode == "hashing":
            return self.config.dim
        return len(self.vocabulary)

    def transform_rows(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature rows of ``texts`` as CSR ``(row_ptr, cols, vals)``.

        Row i keeps its nonzero columns ``cols[row_ptr[i]:row_ptr[i + 1]]`` in
        ascending order, with their values. Each distinct whitespace piece is
        tokenized and mapped to a column once per call. Norms are taken over a
        dense scratch row, so every densified row is bit-identical to the
        count-then-normalize vector of the module docstring.
        """
        lowercase = self.config.lowercase
        dim = self.dim
        if self.config.mode == "hashing":
            def column(tok: str) -> int:
                return _token_hash(tok) % dim
        else:
            def column(tok: str) -> int:
                return self.vocabulary.get(tok, -1)
        columns: dict[str, int] = {}  # whitespace piece -> column, -1 if dropped
        cols_list: list[int] = []
        counts_list: list[int] = []
        row_ptr = [0]
        for text in texts:
            counts: dict[int, int] = {}
            for raw in text.split():
                col = columns.get(raw)
                if col is None:
                    tok = _token(raw, lowercase)
                    col = columns[raw] = column(tok) if tok else -1
                if col >= 0:
                    counts[col] = counts.get(col, 0) + 1
            for col in sorted(counts):
                cols_list.append(col)
                counts_list.append(counts[col])
            row_ptr.append(len(cols_list))
        cols = np.array(cols_list, dtype=np.int64)
        vals = np.array(counts_list, dtype=np.float64)
        if self.config.mode == "tfidf":
            vals *= self.idf[cols]

        scratch = np.zeros(dim, dtype=np.float64)
        for lo, hi in zip(row_ptr[:-1], row_ptr[1:]):
            if lo == hi:
                continue
            c, v = cols[lo:hi], vals[lo:hi]
            scratch[c] = v
            norm = np.sqrt(np.dot(scratch, scratch))
            scratch[c] = 0.0
            if norm > 0.0:
                v /= norm
        return np.array(row_ptr, dtype=np.int64), cols, vals

    def transform(self, text: str) -> np.ndarray:
        """Feature vector for one text; bit-identical across calls."""
        _, cols, vals = self.transform_rows([text])
        vec = np.zeros(self.dim, dtype=np.float64)
        vec[cols] = vals
        return vec

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
            if not np.all(np.isfinite(idf) & (idf > 0.0)):
                raise ValidationError("tfidf idf entries must be finite and positive")
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
