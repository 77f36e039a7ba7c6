"""Phoneme vocabulary: ARPAbet phones, punctuation, word boundary, padding.

Ids are dense from 0 with padding fixed at 0. Unknown words are spelled
letter-by-letter using dedicated lowercase letter tokens (distinct from the
single-letter ARPAbet consonants, which are uppercase).
"""

from __future__ import annotations

PAD = "<pad>"
WORD_BOUNDARY = " "

PUNCTUATION = [".", ",", "?", "!", ";", ":", "'", '"', "-", "(", ")"]

ARPABET = [
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH", "EH", "ER",
    "EY", "F", "G", "HH", "IH", "IY", "JH", "K", "L", "M", "N", "NG", "OW",
    "OY", "P", "R", "S", "SH", "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
]

_VOWELS = ["AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY", "IH", "IY",
           "OW", "OY", "UH", "UW"]
STRESSED = [v + s for v in _VOWELS for s in ("0", "1", "2")]

LETTERS = [chr(c) for c in range(ord("a"), ord("z") + 1)]


class PhonemeVocabulary:
    """Symbol to id map; padding token is always id 0."""

    def __init__(self):
        symbols = [PAD] + PUNCTUATION + [WORD_BOUNDARY] + ARPABET + STRESSED + LETTERS
        self._id_of = {s: i for i, s in enumerate(symbols)}

    def __len__(self):
        return len(self._id_of)

    def __contains__(self, symbol):
        return symbol in self._id_of

    def id(self, symbol):
        try:
            return self._id_of[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in phoneme vocabulary") from None

    def encode(self, symbols):
        return [self.id(s) for s in symbols]


def tokenize_text(text, lexicon, vocab):
    """Turn raw text into vocabulary symbols.

    Words found in the lexicon become their phoneme sequences; unknown words
    are spelled with letter tokens. Punctuation passes through literally and
    words are separated by the word-boundary token.
    """
    out = []
    word = []

    def flush():
        if not word:
            return
        if out and out[-1] != WORD_BOUNDARY:
            out.append(WORD_BOUNDARY)
        w = "".join(word).lower()
        phones = lexicon.get(w)
        if phones is not None:
            out.extend(phones)
        else:
            out.extend(ch for ch in w if ch in vocab)
        word.clear()

    for ch in text:
        if ch.isalpha() or ch == "'" and word:  # keep intra-word apostrophes
            word.append(ch)
        elif ch.isspace():
            flush()
        elif ch in vocab:
            flush()
            out.append(ch)
        else:
            flush()  # unknown character acts as a separator
    flush()
    return out
