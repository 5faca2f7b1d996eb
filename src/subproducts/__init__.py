"""Exact desk-scale toolkit for subset-product coverage of residue classes mod p."""
