"""The JavaScript subset used by CWL expressions: tokenizer, parser, closure compiler."""
