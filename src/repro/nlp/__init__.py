"""Computational-linguistics substrate: tokenizer, POS tagger,
dependency parser, morphology, edit distance, and embeddings.
"""

from repro.nlp.depparse import DependencyTree, parse, parse_tagged
from repro.nlp.dword import levenshtein, normalized_levenshtein, within_distance
from repro.nlp.embeddings import cosine, max_score, phrase_vector, word_vector
from repro.nlp.morphology import (
    gerund,
    noun_plural,
    noun_singular,
    normalize_predicate,
    past_participle,
    verb_lemma,
)
from repro.nlp.pos import TaggedToken, tag, tag_tokens, unknown_word_report
from repro.nlp.semlex import (
    HYPERNYMS,
    SYNONYM_CLUSTERS,
    are_synonyms,
    cluster_of,
    hypernym_chain,
)
from repro.nlp.tokenize import Token, tokenize

__all__ = [
    "DependencyTree",
    "HYPERNYMS",
    "SYNONYM_CLUSTERS",
    "TaggedToken",
    "Token",
    "are_synonyms",
    "cluster_of",
    "cosine",
    "gerund",
    "hypernym_chain",
    "levenshtein",
    "max_score",
    "normalize_predicate",
    "normalized_levenshtein",
    "noun_plural",
    "noun_singular",
    "parse",
    "parse_tagged",
    "past_participle",
    "phrase_vector",
    "tag",
    "tag_tokens",
    "tokenize",
    "unknown_word_report",
    "verb_lemma",
    "within_distance",
    "word_vector",
]
