"""The JavaScript subset used by CWL expressions: tokenizer, parser, compiler to Python code."""
