"""`python -m bohrlab ...` runs the bohrlab command line."""
from .cli import main

if __name__ == "__main__":
    main()
