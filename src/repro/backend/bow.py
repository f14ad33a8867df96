"""Bag-of-binary-words place recognition (Tracking block substrate).

The tracking block uses the bag-of-words method to recognize the place the
current frame observes within a map (Sec. IV-A).  This module implements a
compact DBoW-style pipeline: a binary vocabulary trained with k-majority
clustering over ORB descriptors, TF-IDF weighted bag-of-words vectors, and a
keyframe database queried by L1 similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.frontend.orb import hamming_distance_matrix


# Survey maps of different worlds often carry the very same descriptors (the
# same landmark ids, the same vocabulary seed), so training is memoized on
# its exact inputs.  Bounded: each entry keeps its descriptor bytes as key.
VOCABULARY_MEMO_SIZE = 16


@lru_cache(maxsize=VOCABULARY_MEMO_SIZE)
def _train_words(shape: Tuple[int, ...], payload: bytes, num_words: int, iterations: int,
                 seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """k-majority words and training IDF of the descriptors in ``payload``.

    Returns read-only arrays shared by every hit; callers copy them.
    """
    descriptors = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
    rng = np.random.default_rng(seed)
    initial = rng.choice(descriptors.shape[0], size=num_words, replace=False)
    centroids = descriptors[initial].copy()

    bits = np.unpackbits(descriptors, axis=1)
    for _ in range(iterations):
        distances = hamming_distance_matrix(descriptors, centroids)
        assignment = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for word in range(num_words):
            members = bits[assignment == word]
            if members.shape[0] == 0:
                continue
            majority = (members.mean(axis=0) >= 0.5).astype(np.uint8)
            new_centroids[word] = np.packbits(majority)
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids

    # Inverse document frequency from the training assignment.
    distances = hamming_distance_matrix(descriptors, centroids)
    assignment = np.argmin(distances, axis=1)
    counts = np.bincount(assignment, minlength=num_words).astype(float)
    idf = np.log((descriptors.shape[0] + 1.0) / (counts + 1.0))
    centroids.flags.writeable = False
    idf.flags.writeable = False
    return centroids, idf


class BinaryVocabulary:
    """A flat vocabulary of binary visual words trained by k-majority."""

    def __init__(self, num_words: int = 64, iterations: int = 8, seed: int = 0) -> None:
        if num_words < 2:
            raise ValueError("num_words must be >= 2")
        self.num_words = int(num_words)
        self.iterations = int(iterations)
        self._seed = int(seed)
        self.words: Optional[np.ndarray] = None  # (num_words, bytes)
        self.idf: Optional[np.ndarray] = None

    @property
    def trained(self) -> bool:
        return self.words is not None

    def train(self, descriptors: np.ndarray) -> None:
        """Cluster descriptors into binary words (bitwise majority centroids)."""
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if descriptors.ndim != 2 or descriptors.shape[0] < self.num_words:
            raise ValueError("need at least num_words descriptors to train the vocabulary")
        words, idf = _train_words(descriptors.shape, descriptors.tobytes(), self.num_words,
                                  self.iterations, self._seed)
        self.words = words.copy()
        self.idf = idf.copy()

    def quantize(self, descriptors: np.ndarray) -> np.ndarray:
        """Assign each descriptor to its nearest word; returns word indices."""
        if not self.trained:
            raise RuntimeError("vocabulary must be trained before quantization")
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if descriptors.shape[0] == 0:
            return np.zeros(0, dtype=int)
        distances = hamming_distance_matrix(descriptors, self.words)
        return np.argmin(distances, axis=1)

    def transform(self, descriptors: np.ndarray) -> np.ndarray:
        """TF-IDF weighted, L1-normalized bag-of-words vector."""
        if not self.trained:
            raise RuntimeError("vocabulary must be trained before transform")
        vector = np.zeros(self.num_words)
        assignment = self.quantize(descriptors)
        for word in assignment:
            vector[word] += 1.0
        if vector.sum() > 0:
            vector = vector / vector.sum()
        vector = vector * self.idf
        norm = np.abs(vector).sum()
        return vector / norm if norm > 0 else vector


@dataclass
class KeyframeEntry:
    """A database entry: keyframe identity and its bag-of-words vector."""

    keyframe_id: int
    bow_vector: np.ndarray
    metadata: Dict = field(default_factory=dict)


class KeyframeDatabase:
    """Stores keyframe bag-of-words vectors and answers similarity queries."""

    def __init__(self) -> None:
        self.entries: List[KeyframeEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, keyframe_id: int, bow_vector: np.ndarray, metadata: Optional[Dict] = None) -> None:
        self.entries.append(
            KeyframeEntry(keyframe_id=int(keyframe_id), bow_vector=np.asarray(bow_vector, dtype=float),
                          metadata=metadata or {})
        )

    def query(self, bow_vector: np.ndarray, top_k: int = 3) -> List[Tuple[int, float]]:
        """Return the ``top_k`` most similar keyframes as (id, score) pairs.

        Similarity is the standard L1 score used by DBoW:
        ``1 - 0.5 * |v1 - v2|_1`` for L1-normalized vectors.
        """
        bow_vector = np.asarray(bow_vector, dtype=float)
        scored: List[Tuple[int, float]] = []
        for entry in self.entries:
            score = 1.0 - 0.5 * float(np.abs(bow_vector - entry.bow_vector).sum())
            scored.append((entry.keyframe_id, score))
        scored.sort(key=lambda item: item[1], reverse=True)
        return scored[: max(1, top_k)]

    def best_match(self, bow_vector: np.ndarray, min_score: float = 0.0) -> Optional[Tuple[int, float]]:
        results = self.query(bow_vector, top_k=1)
        if results and results[0][1] >= min_score:
            return results[0]
        return None
