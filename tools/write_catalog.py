"""Rewrite src/ultrafree/connected7.g6 from the catalog generator.

Usage (from the repository root):
    PYTHONPATH=src python tools/write_catalog.py
"""

from ultrafree import catalog


def main() -> None:
    text = "".join(catalog._encode(G) + "\n" for G in catalog._generated_connected(7))
    catalog._STORED_PATH.write_text(text, encoding="ascii")
    print(f"wrote {catalog._STORED_PATH}: {text.count(chr(10))} graphs, {len(text)} bytes")


if __name__ == "__main__":
    main()
