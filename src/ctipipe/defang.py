"""The built-in defang table. It is a module of its own so that config
validation can read it without compiling the indicator patterns."""

# Applied in order; the scheme entries are matched case-insensitively, the
# bracket entries literally. Extendable through the pipeline config.
DEFANG_TABLE: tuple[tuple[str, str], ...] = (
    ("hxxp", "http"),
    ("hxxps", "https"),
    ("[.]", "."),
    ("(.)", "."),
    ("{.}", "."),
    ("[dot]", "."),
    ("[at]", "@"),
    ("[@]", "@"),
)

SCHEME_DEFANGS = frozenset({"hxxp", "hxxps"})
